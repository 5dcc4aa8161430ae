"""Metric derivation, output checks and result validation for run.py.

Everything here is a pure function of the JSON records the cell driver
(`perfbench_cell`) prints, so test_report.py can feed it doctored records.
"""

import math
import statistics

# Workloads whose run is bounded by access count, with that count.
ACCESS_BOUNDED = {
    "cdn-hybridtier": 20000000,
    "bfs-tpp": 20000000,
    "fleet-fair": 20000000,
}
MAX_OP_ACCESSES = 65536
FAILOVER = "cxl-failover"
FAILED_ENDPOINT = 2

POLICY_HOOKS = ("policy.access", "policy.sample", "policy.tick",
                "policy.health")

# Host-time metrics are scaled to the host speed at which the cell's
# fixed probe (host_probe_ns, run right after Run()) takes this long.
PROBE_REF_NS = 50e6


class BenchmarkError(Exception):
    """The benchmark itself produced an invalid result; nothing is printed."""


def _frac(num, den):
    return num / den if den else 0.0


# ------------------------------------------------------------- checks --

def sim_mismatches(reference, other):
    """Names of simulated statistics that differ between two runs."""
    keys = sorted(set(reference) | set(other))
    return [k for k in keys if reference.get(k) != other.get(k)]


def run_failures(workload, record):
    """Output checks that a single run (plain or traced) must pass."""
    failures = []
    sim, state = record["sim"], record["state"]
    if sim["ops"] <= 0:
        failures.append("no operation completed")
    expected = ACCESS_BOUNDED.get(workload)
    # The access budget is checked at op boundaries, so the last op may
    # run past it by less than one op.
    if expected is not None and not (
            expected <= sim["accesses"] < expected + MAX_OP_ACCESSES):
        failures.append("ran %d accesses, expected %d"
                        % (sim["accesses"], expected))
    if state["fast_used_units"] > state["fast_capacity_units"]:
        failures.append("fast occupancy %d exceeds capacity %d"
                        % (state["fast_used_units"],
                           state["fast_capacity_units"]))
    if state["fast_used_timeline_max"] > 1.0:
        failures.append("fast occupancy timeline reached %.6f of capacity"
                        % state["fast_used_timeline_max"])
    if workload == FAILOVER:
        resident = state["endpoint_resident"]
        if len(resident) <= FAILED_ENDPOINT or resident[FAILED_ENDPOINT]:
            failures.append("units still resident on ep%d at end of run: %s"
                            % (FAILED_ENDPOINT, resident))
        if sim["fault_endpoints_downed"] < 1:
            failures.append("the fault never took ep%d down" % FAILED_ENDPOINT)
        if not (state["p99_points_to_fault"]
                and state["p99_points_after_fault"]):
            failures.append("run does not cover both the pre- and post-fault "
                            "phase")
    return failures


def traced_failures(record):
    """Checks only the traced run can make (it carries the attribution)."""
    failures = []
    attr = record["attr"]
    total = attr["op_latency_ns"]
    if attr["component_sum_ns"] != total:
        failures.append("attribution components sum to %d ns, ops took %d ns"
                        % (attr["component_sum_ns"], total))
    if attr["observed_op_latency_ns"] != total:
        failures.append("closed-loop observed op latency %d ns != "
                        "attributed %d ns"
                        % (attr["observed_op_latency_ns"], total))
    ops = record["sim"]["ops"]
    if attr["observed_ops"] != attr["ops"] or attr["ops"] != ops:
        failures.append("op counts disagree: observed %d, attributed %d, "
                        "simulated %d" % (attr["observed_ops"], attr["ops"],
                                          ops))
    return failures


def first_by_seed(plain):
    """The first successful untraced record of each cell seed, in order."""
    firsts = {}
    for record in plain:
        if record is not None and record["seed"] not in firsts:
            firsts[record["seed"]] = record
    return firsts


def check_runs(workload, plain, traced):
    """Applies every output check.

    `plain` is a list of records (None for a run that exited abnormally),
    `traced` one record, None for an abnormal exit, or absent (False).
    Runs of the same cell seed must report identical simulated statistics.
    Returns a list of (label, [failure, ...]) for every failed run.
    """
    failed = []
    firsts = first_by_seed(plain)
    for i, record in enumerate(plain):
        label = "plain run %d" % (i + 1)
        if record is None:
            failed.append((label, ["exited abnormally"]))
            continue
        failures = run_failures(workload, record)
        diff = sim_mismatches(firsts[record["seed"]]["sim"], record["sim"])
        if diff:
            failures.append("simulated statistics differ from the first run "
                            "of seed %d: %s" % (record["seed"],
                                                ", ".join(diff)))
        if failures:
            failed.append((label, failures))
    if traced is not False:
        if traced is None:
            failed.append(("traced run", ["exited abnormally (a tripped "
                                          "watchdog aborts the run)"]))
        else:
            failures = run_failures(workload, traced) + traced_failures(traced)
            reference = firsts.get(traced["seed"])
            if reference is None:
                failures.append("no untraced run of seed %d to compare with"
                                % traced["seed"])
            else:
                diff = sim_mismatches(reference["sim"], traced["sim"])
                if diff:
                    failures.append("traced simulated statistics differ from "
                                    "the untraced run: " + ", ".join(diff))
            if failures:
                failed.append(("traced run", failures))
    return failed


# ------------------------------------------------------------ metrics --

def simulated(sim):
    """The simulated end-to-end metrics of one cell run."""
    return {
        "sim_mops": sim["throughput_mops"],
        "sim_p50_ns": sim["median_latency_ns"],
        "sim_p99_ns": sim["p99_latency_ns"],
        "fast_fill_frac": _frac(sim["fast_mem_accesses"],
                                sim["fast_mem_accesses"]
                                + sim["slow_mem_accesses"]),
        "metadata_kib": sim["metadata_bytes"] / 1024.0,
        "tiering_llc_miss_share": _frac(sim["llc_tiering_misses"],
                                        sim["llc_app_misses"]
                                        + sim["llc_tiering_misses"]),
        "weighted_jain": sim["weighted_jain_fairness"],
        "served_access_frac": 1.0 - _frac(sim["fault_stalled_accesses"],
                                          sim["accesses"]),
    }


def host_slowdown(record):
    """How much slower the host ran the probe than the reference speed."""
    return record["host_probe_ns"] / PROBE_REF_NS


def raw_maccs(record):
    return record["sim"]["accesses"] * 1e3 / record["run_wall_ns"]


def end_to_end(plain):
    """End-to-end metrics from the successful untraced runs.

    Other work on a shared host can slow every run of a whole minute, so
    each run's throughput and set-up time are scaled by the slowdown its
    own host probe measured, and the median over the runs is reported.
    Peak memory is a median. Simulated metrics are the median over the
    run's cell seeds, one value per seed.
    """
    runs = [r for r in plain if r is not None]
    values = {
        "maccs": statistics.median(raw_maccs(r) * host_slowdown(r)
                                   for r in runs),
        "setup_s": statistics.median(r["setup_s"] / host_slowdown(r)
                                     for r in runs),
        "peak_rss_mib": statistics.median(
            r["peak_rss_kib"] / 1024.0 for r in runs),
    }
    per_seed = [simulated(r["sim"]) for r in first_by_seed(plain).values()]
    for name in per_seed[0]:
        values[name] = statistics.median(v[name] for v in per_seed)
    return values


def _hook_self_ns(hook, clock_ns):
    """Estimated total self ns of a hook over all its calls.

    Timed calls carry the measured time minus nested migrations and minus
    the clock's own cost; untimed calls are assumed to cost the same.
    """
    if not hook["timed_calls"]:
        return 0.0
    timed_self = max(0.0, hook["timed_ns"] - hook["child_ns"]
                     - hook["timed_calls"] * clock_ns)
    return timed_self * hook["calls"] / hook["timed_calls"]


def _per_call_ns(hook, clock_ns, self_only):
    if not hook["timed_calls"]:
        return 0.0
    spent = hook["timed_ns"] - hook["timed_calls"] * clock_ns
    if self_only:
        spent -= hook["child_ns"]
    return max(0.0, spent) / hook["timed_calls"]


def layer_breakdown(traced):
    """Host ns per access of each layer of the traced run, their sum, the
    traced run's own ns per access and the residual the layers leave."""
    hooks, replay = traced["hooks"], traced["replay"]
    clock = traced["clock_ns"]
    accesses = traced["sim"]["accesses"]
    gen = hooks["gen"]
    mig = hooks["migrate"]
    rows = {
        "gen": _per_call_ns(gen, clock, False) * gen["calls"] / accesses,
        "policy": sum(_hook_self_ns(hooks[h], clock)
                      for h in POLICY_HOOKS) / accesses,
        "migrate": max(0.0, mig["timed_ns"] - mig["timed_calls"] * clock)
                   / accesses,
        "cache": replay["cache_ns_per_access"],
        "touch": replay["touch_ns_per_access"],
        "perf": replay["perf_ns_per_fill"]
                * _frac(replay["fills"], replay["accesses"]),
        "sampler": replay["sampler_ns_per_access"],
    }
    rows["sum"] = sum(rows.values())
    rows["traced"] = traced["run_wall_ns"] / accesses
    rows["residual"] = rows["traced"] - rows["sum"]
    return rows


def per_layer(traced, plain):
    """Per-layer metrics of the traced run (see NOTES.md for the table)."""
    hooks, replay, attr = traced["hooks"], traced["replay"], traced["attr"]
    sim, audit = traced["sim"], traced["audit"]
    clock = traced["clock_ns"]
    runs = [r for r in plain if r is not None]
    same_cell = [r for r in runs if r["seed"] == traced["seed"]] or runs
    plain_wall = statistics.median(r["run_wall_ns"] for r in same_cell)
    layers = layer_breakdown(traced)
    per_access = layers["traced"]
    gen = hooks["gen"]
    mig = hooks["migrate"]
    op_latency = attr["op_latency_ns"]

    return {
        "gen.ns_per_op": _per_call_ns(gen, clock, False),
        "gen.share": layers["gen"] / per_access,
        "policy.access.calls": hooks["policy.access"]["calls"],
        "policy.access.ns_per_call": _per_call_ns(hooks["policy.access"],
                                                  clock, False),
        "policy.sample.calls": hooks["policy.sample"]["calls"],
        "policy.sample.ns_per_call": _per_call_ns(hooks["policy.sample"],
                                                  clock, False),
        "policy.tick.calls": hooks["policy.tick"]["calls"],
        "policy.tick.self_ns_per_call": _per_call_ns(hooks["policy.tick"],
                                                     clock, True),
        "policy.share": layers["policy"] / per_access,
        "migrate.batches": mig["calls"],
        "migrate.pages": mig["items"],
        "migrate.ns_per_page": _frac(layers["migrate"] * sim["accesses"],
                                     mig["items"]),
        "migrate.failed_frac": _frac(mig["failed"], mig["items"]),
        "migrate.share": layers["migrate"] / per_access,
        "engine.ns_per_access": per_access - layers["gen"] - layers["policy"]
                                - layers["migrate"],
        "cache.ns_per_access": replay["cache_ns_per_access"],
        "cache.llc_miss_frac": _frac(replay["cache_memory_fills"],
                                     replay["accesses"]),
        "mem.touch_ns": replay["touch_ns_per_access"],
        "perf.ns_per_fill": replay["perf_ns_per_fill"],
        "sampler.ns_per_access": replay["sampler_ns_per_access"],
        "cbf.blocked_ns_per_update": replay["cbf_blocked_ns_per_update"],
        "cbf.standard_ns_per_update": replay["cbf_standard_ns_per_update"],
        "cbf.filter_kib": replay["cbf_bytes"] / 1024.0,
        "layers.sum_ns_per_access": layers["sum"],
        "layers.traced_ns_per_access": per_access,
        "layers.residual_ns_per_access": layers["residual"],
        "sampler.samples": sim["samples_taken"],
        "sampler.drop_frac": _frac(sim["samples_dropped"],
                                   sim["samples_taken"]),
        "mem.hint_faults": sim["hint_faults"],
        "attr.slow_queue_frac": _frac(attr["slow_queue"], op_latency),
        "attr.migration_stall_frac": _frac(attr["migration_stall"],
                                           op_latency),
        "attr.hint_fault_frac": _frac(attr["hint_fault"], op_latency),
        "attr.fault_stall_frac": _frac(attr["fault_stall"], op_latency),
        "audit.premature_demotion_frac": _frac(audit["premature_demotions"],
                                               audit["demoted_pages"]),
        "fault.evacuated_pages": sim["fault_evacuated_pages"],
        "fault.evac_retries": sim["fault_evac_retries"],
        "trace.overhead_frac": traced["run_wall_ns"] / plain_wall - 1.0,
        "host.maccs_raw": max(raw_maccs(r) for r in runs),
        "host.setup_raw_s": statistics.median(r["setup_s"] for r in runs),
        "host.slowdown": statistics.median(host_slowdown(r) for r in runs),
    }


# --------------------------------------------------------- validation --

def validate_result(result, benchmark, trace):
    """Raises BenchmarkError unless `result` meets the output contract.

    The metric set must be exactly the one BENCHMARK.json declares for
    this mode (end_to_end for --trace 0, per_layer for --trace 1), each
    with its declared unit and a finite number.
    """
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        raise BenchmarkError("result keys %s" % sorted(result))
    if not isinstance(result["correct"], bool):
        raise BenchmarkError("'correct' must be a boolean")
    for key in ("attempted", "failed"):
        if not isinstance(result[key], int) or isinstance(result[key], bool):
            raise BenchmarkError("'%s' must be a whole number" % key)
    attempted, failed = result["attempted"], result["failed"]
    if attempted < 1 or not 0 <= failed <= attempted:
        raise BenchmarkError("attempted=%d failed=%d" % (attempted, failed))
    declared = benchmark["per_layer" if trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}
    metrics = result["metrics"]
    unknown = sorted(set(metrics) - set(units))
    missing = sorted(set(units) - set(metrics))
    if unknown:
        raise BenchmarkError("unknown metric names: %s" % ", ".join(unknown))
    if missing:
        raise BenchmarkError("missing metrics: %s" % ", ".join(missing))
    for name, entry in metrics.items():
        if set(entry) != {"value", "unit"} or entry["unit"] != units[name]:
            raise BenchmarkError("metric %s: %r, declared unit %s"
                                 % (name, entry, units[name]))
        value = entry["value"]
        if (not isinstance(value, (int, float)) or isinstance(value, bool)
                or not math.isfinite(value)):
            raise BenchmarkError("metric %s is not a finite number: %r"
                                 % (name, value))


def make_result(values, failed_runs, attempted, benchmark, trace):
    """Builds and validates the final result object."""
    declared = benchmark["per_layer" if trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}
    result = {
        "correct": not failed_runs,
        "attempted": attempted,
        "failed": len(failed_runs),
        "metrics": {name: {"value": value, "unit": units.get(name, "?")}
                    for name, value in values.items()},
    }
    validate_result(result, benchmark, trace)
    return result
