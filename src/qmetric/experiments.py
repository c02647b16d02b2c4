"""Config-driven experiment runners behind the qmetric command line.

Each runner consumes a JSON config and produces a Report: ordered rows, an
auditable meta block (config hash, tool version, tolerances), and a pass
flag for runs that carry assertions.  Identical configs yield byte-identical
reports.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from . import __version__
from .errors import ConfigError, check_fields
from .groups import Group, decode_element, group_from_json
from .metrics import connes_bracket, connes_heuristic, d_2
from .opalgebra import AlgebraElement
from .states import (CharacterState, DensityState, StateRep, _decode_real, kappa_bounds,
                     state_from_json)
from .wordlength import enumerate_ball, growth_fit, shell_table

ORDER_TOL = 1e-9
HEURISTIC_SLACK = 1e-6


@dataclass
class Report:
    experiment: str
    columns: list[str]
    rows: list[list]
    meta: dict = field(default_factory=dict)
    passed: bool = True

    def _cell(self, value) -> str:
        value = self._plain(value)
        if value is None:
            return ""
        if isinstance(value, bool):
            return "true" if value else "false"
        return str(value)

    def to_csv(self) -> str:
        lines = [f"# experiment={self.experiment}"]
        for key in sorted(self.meta):
            lines.append(f"# {key}={self._cell(self.meta[key])}")
        lines.append(f"# passed={self._cell(self.passed)}")
        lines.append(",".join(self.columns))
        for row in self.rows:
            lines.append(",".join(self._cell(v) for v in row))
        return "\n".join(lines) + "\n"

    @staticmethod
    def _plain(value):
        if isinstance(value, (bool, np.bool_)):
            return bool(value)
        if isinstance(value, (float, np.floating)):
            value = float(value)
            return "inf" if math.isinf(value) else value
        if isinstance(value, np.integer):
            return int(value)
        return value

    def to_json(self) -> str:
        payload = {
            "experiment": self.experiment,
            "meta": {k: self._plain(v) for k, v in self.meta.items()},
            "columns": self.columns,
            "rows": [[self._plain(v) for v in row] for row in self.rows],
            "passed": self.passed,
        }
        return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def config_hash(config: dict) -> str:
    canonical = json.dumps(config, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()[:16]


# ---------------------------------------------------------------------------
# config helpers
# ---------------------------------------------------------------------------

def load_json(path: str, what: str):
    """Parse the UTF-8 JSON file at path; failing to read or parse it is a ConfigError.

    ValueError covers invalid JSON, bytes that are not UTF-8 and a NUL byte in
    the path; OSError a missing file, a directory and a denied read;
    RecursionError arrays or objects nested about a thousand deep.
    """
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, ValueError, RecursionError) as exc:
        raise ConfigError(f"{what}: cannot load JSON file {path!r}: {exc}") from exc


def _load_spec(value, what: str):
    """A spec field is either an inline object or a path to a JSON file."""
    return load_json(value, what) if isinstance(value, str) else value


# the fields each experiment's config may hold; any other field is a ConfigError
_CONFIG_FIELDS = {
    "ball": frozenset({"group", "radius"}),
    "growth": frozenset({"group", "radius"}),
    "summable": frozenset({"group", "radius", "require_exceeds"}),
    "dist": frozenset({"group", "state_a", "state_b", "radius", "mode", "trunc",
                       "support_radius"}),
    "sandwich": frozenset({"group", "states", "radius", "trunc", "support_radius"}),
    "converge": frozenset({"group", "limit_state", "sequence", "radius", "epsilon"}),
    "kappa": frozenset({"group", "states", "radius"}),
}
_SEQUENCE_FIELDS = {
    "character_inverse_n": frozenset({"kind", "n_max"}),
    "density_inverse_n": frozenset({"kind", "n_max", "base_element", "step_element"}),
    "explicit": frozenset({"kind", "states"}),
}


def _check_config(config: dict, experiment: str) -> None:
    check_fields(config, _CONFIG_FIELDS[experiment], f"{experiment} config")


def _require(config: dict, key: str):
    if key not in config:
        raise ConfigError(f"missing required config field {key!r}")
    return config[key]


def _get_group(config: dict) -> Group:
    return group_from_json(_load_spec(_require(config, "group"), "group"))


def _get_positive_int(config: dict, key: str = "radius",
                      default: Optional[int] = None) -> int:
    value = _require(config, key) if default is None else config.get(key, default)
    if isinstance(value, bool) or not isinstance(value, int) or value < 1:
        raise ConfigError(f"{key}: must be a positive integer")
    return value


def _get_number(config: dict, key: str) -> float:
    return _decode_real(_require(config, key), key)


def _get_truncation(config: dict, trunc_default: Optional[int] = None,
                    support_default: Optional[int] = None) -> tuple[int, int]:
    """Heuristic radii (trunc, support_radius), with trunc >= 2 * support_radius.

    Without defaults trunc is required and support_radius defaults to
    min(3, trunc // 2), but at least 1.
    """
    trunc = _get_positive_int(config, "trunc", trunc_default)
    if support_default is None:
        support_default = min(3, max(1, trunc // 2))
    support_radius = _get_positive_int(config, "support_radius", support_default)
    if trunc < 2 * support_radius:
        raise ConfigError("trunc: must be at least twice the support radius")
    return trunc, support_radius


def _get_states(config: dict, group: Group) -> list[tuple[str, StateRep]]:
    raw = _require(config, "states")
    if not isinstance(raw, list) or not raw:
        raise ConfigError("states: must be a non-empty list")
    out = []
    for k, item in enumerate(raw):
        label, spec = f"state{k}", item
        if isinstance(item, dict) and "state" in item:
            check_fields(item, frozenset({"label", "state"}), f"states[{k}]")
            label, spec = item.get("label", label), item["state"]
            # labels are CSV cells, and "|" joins the two labels of a pair
            if not isinstance(label, str) or any(c in label for c in ",|\r\n"):
                raise ConfigError(f"states[{k}].label: must be a string without ',', "
                                  f"'|', CR or LF")
        if any(label == seen for seen, _ in out):
            raise ConfigError(f"states[{k}]: duplicate label {label!r}")
        out.append((label, state_from_json(group, _load_spec(spec, f"states[{k}]"))))
    return out


def _base_meta(config: dict, **extra) -> dict:
    meta = {"config_hash": config_hash(config), "version": __version__}
    meta.update(extra)
    return meta


# ---------------------------------------------------------------------------
# runners
# ---------------------------------------------------------------------------

def run_ball(config: dict) -> Report:
    _check_config(config, "ball")
    group = _get_group(config)
    rows = shell_table(enumerate_ball(group, _get_positive_int(config)))
    return Report("ball",
                  ["radius", "ball_size", "shell_size", "partial_square_sum",
                   "tail_bound"],
                  rows, _base_meta(config, family=group.family))


def run_growth(config: dict) -> Report:
    _check_config(config, "growth")
    group = _get_group(config)
    radius = _get_positive_int(config)
    if radius < 3:
        raise ConfigError("growth: radius must be >= 3")
    ball = enumerate_ball(group, radius)
    fit = growth_fit(ball)
    bound = group.shell_bound
    meta = _base_meta(config, family=group.family, fit_k=fit.fit_k, fit_l=fit.fit_l,
                      residual=fit.residual, shell_bound=bound,
                      shell_bound_provenance="analytic" if bound is not None else None)
    return Report("growth",
                  ["radius", "ball_size", "shell_size", "partial_square_sum",
                   "tail_bound"],
                  shell_table(ball), meta)


def run_summable(config: dict) -> Report:
    _check_config(config, "summable")
    group = _get_group(config)
    ball = enumerate_ball(group, _get_positive_int(config))
    rows = [[row[0], row[3], row[4]] for row in shell_table(ball) if row[0] >= 1]
    partial, tail = rows[-1][1:]
    meta = _base_meta(config, family=group.family, partial=partial, tail_bound=tail)
    passed = True
    if config.get("require_exceeds") is not None:
        threshold = _get_number(config, "require_exceeds")
        passed = partial > threshold
        meta["threshold"] = threshold
    return Report("summable", ["radius", "partial_square_sum", "tail_bound"],
                  rows, meta, passed)


def run_dist(config: dict) -> Report:
    _check_config(config, "dist")
    group = _get_group(config)
    phi = state_from_json(group, _load_spec(_require(config, "state_a"), "state_a"))
    psi = state_from_json(group, _load_spec(_require(config, "state_b"), "state_b"))
    radius = _get_positive_int(config)
    mode = config.get("mode", "both")
    if mode not in ("bracket", "both"):
        raise ConfigError(f"mode: must be bracket or both, got {mode!r}")
    trunc = support_radius = None  # heuristic radii; the bracket needs neither
    if mode == "both" or {"trunc", "support_radius"} & config.keys():
        trunc, support_radius = _get_truncation(config)
    bracket = connes_bracket(phi, psi, enumerate_ball(group, radius))
    lower, upper = bracket.d_inf, bracket.d_2
    heuristic = drift = None
    if mode == "both":
        result = connes_heuristic(phi, psi, group, support_radius, trunc)
        heuristic, drift = result.estimate, result.sigma_drift
    row = [lower.lo, lower.hi, upper.lo, upper.hi, bracket.lo, bracket.hi,
           heuristic, drift, radius, trunc]
    return Report("dist",
                  ["d_inf_lo", "d_inf_hi", "d2_lo", "d2_hi", "d_lo", "d_hi",
                   "heuristic", "sigma_drift", "radius", "trunc"],
                  [row], _base_meta(config, family=group.family, mode=mode,
                                    support_radius=support_radius))


def run_sandwich(config: dict) -> Report:
    _check_config(config, "sandwich")
    group = _get_group(config)
    states = _get_states(config, group)
    radius = _get_positive_int(config)
    trunc, support_radius = _get_truncation(config, trunc_default=40, support_default=3)
    ball = enumerate_ball(group, radius)
    rows = []
    all_pass = True
    for (la, phi), (lb, psi) in itertools.combinations(states, 2):
        bracket = connes_bracket(phi, psi, ball)
        lower, upper = bracket.d_inf, bracket.d_2
        result = connes_heuristic(phi, psi, group, support_radius, trunc)
        divergent = math.isinf(upper.hi)
        ok = (lower.lo <= upper.lo + ORDER_TOL
              and result.estimate >= lower.lo - HEURISTIC_SLACK
              and (divergent or result.estimate
                   <= upper.hi + result.sigma_drift + ORDER_TOL))
        all_pass = all_pass and ok
        rows.append([f"{la}|{lb}", lower.lo, result.estimate, upper.lo,
                     upper.hi, result.sigma_drift, divergent, ok])
    meta = _base_meta(config, family=group.family, radius=radius, trunc=trunc,
                      support_radius=support_radius, order_tol=ORDER_TOL,
                      heuristic_slack=HEURISTIC_SLACK)
    return Report("sandwich",
                  ["pair", "d_inf_lo", "heuristic", "d2_lo", "d2_hi",
                   "sigma_drift", "d2_divergent", "pass"],
                  rows, meta, all_pass)


def _sequence_states(config: dict, group: Group) -> list[tuple[int, StateRep]]:
    seq = _require(config, "sequence")
    if not isinstance(seq, dict) or "kind" not in seq:
        raise ConfigError("sequence: must be an object with a 'kind'")
    kind = seq["kind"]
    if not isinstance(kind, str) or kind not in _SEQUENCE_FIELDS:
        raise ConfigError(f"sequence.kind: unknown kind {kind!r}")
    check_fields(seq, _SEQUENCE_FIELDS[kind], "sequence")
    if kind == "character_inverse_n":
        n_max = _get_positive_int(seq, "n_max", 50)
        if group.family != "free_abelian":
            raise ConfigError("character_inverse_n requires a free abelian group")
        return [(n, CharacterState(group, [np.exp(1j / n)] * group.rank))
                for n in range(1, n_max + 1)]
    if kind == "density_inverse_n":
        n_max = _get_positive_int(seq, "n_max", 50)
        base_el = decode_element(group, _require(seq, "base_element"))
        step_el = decode_element(group, _require(seq, "step_element"))
        return [(n, DensityState(group, AlgebraElement({base_el: 1.0,
                                                        step_el: 1.0 / n})))
                for n in range(1, n_max + 1)]
    # kind == "explicit"
    states = seq.get("states")
    if not isinstance(states, list) or not states:
        raise ConfigError("sequence.states: must be a non-empty list")
    return [(n + 1, state_from_json(group, _load_spec(s, f"sequence.states[{n}]")))
            for n, s in enumerate(states)]


def run_converge(config: dict) -> Report:
    _check_config(config, "converge")
    group = _get_group(config)
    limit = state_from_json(group, _load_spec(_require(config, "limit_state"),
                                              "limit_state"))
    sequence = _sequence_states(config, group)
    radius = _get_positive_int(config)
    epsilon = _get_number(config, "epsilon")
    if not epsilon > 0:
        raise ConfigError("epsilon: must be positive")
    ball = enumerate_ball(group, radius)
    rows = []
    prev_inf = prev_2 = math.inf
    monotone = True
    for n, state in sequence:
        bracket = connes_bracket(state, limit, ball)
        hi_inf, hi_2 = bracket.d_inf.hi, bracket.hi
        monotone = monotone and hi_inf <= prev_inf + 1e-12 and hi_2 <= prev_2 + 1e-12
        prev_inf, prev_2 = hi_inf, hi_2
        rows.append([n, hi_inf, hi_2])
    passed = monotone and rows[-1][1] < epsilon
    meta = _base_meta(config, family=group.family, radius=radius, epsilon=epsilon,
                      monotone=monotone)
    return Report("converge", ["n", "d_inf_hi", "d2_hi"], rows, meta, passed)


def run_kappa(config: dict) -> Report:
    _check_config(config, "kappa")
    group = _get_group(config)
    states = _get_states(config, group)
    radius = _get_positive_int(config)
    ball = enumerate_ball(group, radius)
    rows = []
    all_pass = True
    kappas = {}
    for label, state in states:
        if not isinstance(state, DensityState):
            raise ConfigError(f"state {label!r}: kappa runs need density states")
        bound = kappa_bounds(state, ball)
        sum_sq = float(sum(abs(c) ** 2 for c in state.rho.coeffs.values()))
        ok = sum_sq <= bound.kappa_upper + ORDER_TOL and bound.kappa_upper >= 1.0
        kappas[label] = bound.kappa_upper
        all_pass = all_pass and ok
        rows.append(["state", label, bound.kappa_lower, bound.kappa_upper,
                     sum_sq, ok])
    labels = [label for label, _ in states]
    for (la, phi), (lb, psi) in itertools.combinations(states, 2):
        hi = d_2(phi, psi, ball).hi
        cap = 2.0 * max(kappas[la], kappas[lb])
        ok = hi <= cap + ORDER_TOL
        all_pass = all_pass and ok
        rows.append(["pair", f"{la}|{lb}", hi, cap, None, ok])
    meta = _base_meta(config, family=group.family, radius=radius,
                      order_tol=ORDER_TOL, labels=",".join(labels))
    return Report("kappa",
                  ["row_kind", "label", "value_lo", "value_hi", "sum_sq_coeff",
                   "pass"],
                  rows, meta, all_pass)


RUNNERS: dict[str, Callable[[dict], Report]] = {
    "ball": run_ball,
    "growth": run_growth,
    "summable": run_summable,
    "dist": run_dist,
    "sandwich": run_sandwich,
    "converge": run_converge,
    "kappa": run_kappa,
}
