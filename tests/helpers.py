"""Helpers shared by the test modules."""

from clusterbandits import bench


def regret_at(history, t: int) -> float:
    """Cumulative regret of `history` after round t (1-based round count)."""
    if t <= 0:
        return 0.0
    return float(history.cumulative_regret[min(t, len(history)) - 1])


def _text(value) -> str:
    """Config-file text of one parsed value."""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, list):
        return ",".join(map(str, value))
    return str(value)


def serialize_config(config) -> str:
    """Config-file text of a parsed `bench.ExperimentConfig`."""
    experiment = {key: getattr(config, key) for key in bench.EXPERIMENT_TYPES}
    lines: list[str] = []
    sections = [("instance", config.instance), ("experiment", experiment)]
    for name, body in sections + [(f"algorithm {a}", b) for a, b in config.algorithms]:
        lines.append(f"[{name}]")
        lines.extend(f"{key} = {_text(value)}" for key, value in body.items())
    return "\n".join(lines) + "\n"
