"""The persistency-percentage metric and machine-readable run reports."""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, fields

from .model import GraphicalModel, PartialLabeling, _integers, _subset_mask
from .persistency import PersistencyResult


def persistency_percentage(model: GraphicalModel, nodes) -> float:
    """Label-space-weighted fraction of determined variables.

    1 - sum_{u not in A} log|X_u| / sum_u log|X_u|; single-label nodes
    contribute nothing to either sum (they carry no decision), and a model
    of only such nodes counts as fully determined.  The log base cancels.
    """
    inside = _subset_mask(model, nodes)
    total = sum(math.log(k) for k in model.label_counts if k >= 2)
    if total == 0.0:
        return 1.0
    outside = sum(
        math.log(k)
        for v, k in enumerate(model.label_counts)
        if k >= 2 and not inside[v]
    )
    return 1.0 - outside / total


REPORT_FORMAT = "mapprune-report-v1"


def _integer(value) -> int:
    """A node id or label read from a report, which int() would truncate."""
    error = ValueError(f"malformed {REPORT_FORMAT} document: {value!r} is not an integer")
    return _integers((value,), error)[0]


def _node_key(key: str) -> int:
    """A node id read from an ``x_star`` key, which ``to_json`` writes as
    ``str(v)``; int() would also read "0_3", "+3" and " 3" as node 3."""
    if not (key.isascii() and key.removeprefix("-").isdigit() and str(int(key)) == key):
        raise ValueError(f"malformed {REPORT_FORMAT} document: {key!r} is not an integer")
    if key.startswith("-"):
        raise ValueError(f"malformed {REPORT_FORMAT} document: {key!r} is not a node id")
    return int(key)


@dataclass(frozen=True)
class RunReport:
    """Everything `verify` needs besides the model file itself.

    ``verification`` is filled when the brute-force oracle was run on the
    result (e.g. `prune --verify`): {"persistent": bool, "num_optima": int}.
    """

    instance: str
    solver: str
    mode: str
    a_star: tuple[int, ...]
    x_star: dict[int, int]
    percentage: float
    trace: list[dict]
    wall_time_s: float
    notes: tuple[str, ...] = ()
    verification: dict | None = None

    @classmethod
    def from_result(
        cls,
        instance: str,
        result: PersistencyResult,
        model: GraphicalModel,
        wall_time_s: float,
        verification: dict | None = None,
    ) -> "RunReport":
        return cls(
            instance=instance,
            solver=result.solver,
            mode=result.mode,
            a_star=result.a_star,
            x_star=result.x_star.as_mapping(),
            percentage=persistency_percentage(model, result.a_star),
            trace=[{f.name: getattr(r, f.name) for f in fields(r)} for r in result.trace],
            wall_time_s=wall_time_s,
            notes=result.notes,
            verification=verification,
        )

    def to_json(self) -> str:
        payload = {
            "format": REPORT_FORMAT,
            "instance": self.instance,
            "solver": self.solver,
            "mode": self.mode,
            "a_star": list(self.a_star),
            "x_star": {str(v): int(l) for v, l in self.x_star.items()},
            "percentage": self.percentage,
            "trace": self.trace,
            "wall_time_s": self.wall_time_s,
            "notes": list(self.notes),
            "verification": self.verification,
        }
        return json.dumps(payload, indent=2) + "\n"

    @classmethod
    def from_json(cls, text: str) -> "RunReport":
        """Parse a report; raises ValueError when ``text`` is not a report
        object, lacks a field or holds a field of the wrong type."""
        payload = json.loads(text)
        if not isinstance(payload, dict) or payload.get("format") != REPORT_FORMAT:
            raise ValueError(f"not a {REPORT_FORMAT} document")
        try:
            return cls(
                instance=payload["instance"],
                solver=payload["solver"],
                mode=payload["mode"],
                a_star=tuple(_integer(v) for v in payload["a_star"]),
                x_star={_node_key(v): _integer(l) for v, l in payload["x_star"].items()},
                percentage=float(payload["percentage"]),
                trace=payload["trace"],
                wall_time_s=float(payload["wall_time_s"]),
                notes=tuple(payload.get("notes", ())),
                verification=payload.get("verification"),
            )
        except KeyError as e:
            raise ValueError(f"{REPORT_FORMAT} document has no field {e.args[0]!r}") from None
        except (TypeError, AttributeError) as e:
            raise ValueError(f"malformed {REPORT_FORMAT} document: {e}") from None

    def x_star_partial(self) -> PartialLabeling:
        return PartialLabeling.from_mapping(self.x_star)
