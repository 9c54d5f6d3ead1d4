"""Helpers shared by the test modules."""


def regret_at(history, t: int) -> float:
    """Cumulative regret of `history` after round t (1-based round count)."""
    if t <= 0:
        return 0.0
    return float(history.cumulative_regret[min(t, len(history)) - 1])


def serialize_config(config) -> str:
    """Config-file text of a parsed `bench.ExperimentConfig`."""
    lines: list[str] = []
    sections = [("instance", config.instance), ("experiment", config.experiment)]
    for name, body in sections + [(f"algorithm {a}", b) for a, b in config.algorithms]:
        lines.append(f"[{name}]")
        lines.extend(f"{key} = {value}" for key, value in body.items())
    return "\n".join(lines) + "\n"
