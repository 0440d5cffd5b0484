"""Certified-verdict benchmark for toricperiod.

    python3 perfbench/run.py --workload period-deep --seed 1 --seconds 55 --trace 0

Run from the root of a checkout; the library is imported from ./src.  One
caller runs a closed loop: it hands the library its next input only after
the previous verdict returned.  The first pass runs every input of the
workload; then the inputs run again, each as often as its share of
--seconds allows, spread over the run.  With --trace 1 every input runs traced and then untraced; the
per-layer numbers come from the first traced pass, and the gap between the
two is the tracing overhead.

Every verdict is checked against known answers and an independent re-expansion
of its certificate (see oracle.py), must give the same output digest on every
run, and must match the digests recorded for the seed commit in
baseline.json.  The last line of stdout is one JSON object with the keys
correct, attempted, failed and metrics.
"""

import time

START = time.perf_counter()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import types  # noqa: E402
from pathlib import Path  # noqa: E402

from tracer import MODULES, Tracer  # noqa: E402
from workloads import WORKLOADS, predicted_cosets  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"
BASELINE = HERE / "baseline.json"

# Set-ups per run: the one the run uses, at its start, and the rest spread
# evenly over --seconds, so their median sees the machine as the verdicts do.
SETUPS = 11
# Runs of every input that fits in the time; the first pass is one of them.
MIN_RUNS = 2
# A run must end within 180 s of its start, whatever --seconds says.  No
# verdict starts or keeps running past this many seconds after START; a
# verdict cut by this limit fails as a timeout.
LIMIT_S = 165
TAIL_LADDER = (99, 95, 90, 75, 50)
TIMEOUT = "timeout"


class LibraryMissing(RuntimeError):
    pass


class VerdictTimeout(Exception):
    pass


def _alarm(signum, frame):
    raise VerdictTimeout()


def load_library():
    """Import toricperiod afresh from ./src and return its modules."""
    src = ROOT / "src"
    if not (src / "toricperiod" / "__init__.py").is_file():
        raise LibraryMissing(f"no toricperiod package under {src}")
    if sys.path[0] != str(src):
        sys.path.insert(0, str(src))
    for name in [m for m in sys.modules if m == "toricperiod" or m.startswith("toricperiod.")]:
        del sys.modules[name]
    package = importlib.import_module("toricperiod")
    if Path(package.__file__).resolve().parent != src / "toricperiod":
        raise LibraryMissing(f"toricperiod was imported from {package.__file__}")
    return types.SimpleNamespace(
        **{m: importlib.import_module(f"toricperiod.{m}") for m in MODULES}
    )


def digest(payload):
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def run_verdict(item, timeout_s, deadline, tracer=None):
    """One timed call: (seconds, failure or None, output digest, work counts).

    The call is cut after `timeout_s` or at `deadline`, whichever comes
    first; a verdict that cannot start before `deadline` has no time.
    """
    timeout = min(timeout_s, deadline - time.perf_counter())
    if timeout <= 0:
        return None, TIMEOUT, None, {}
    before = dict(tracer.counters) if tracer else None
    reason, payload = None, None
    signal.setitimer(signal.ITIMER_REAL, timeout)
    start = time.perf_counter()
    try:
        try:
            if tracer is None:
                result = item.run()
            else:
                with tracer.installed(), tracer.span("bench.verdict"):
                    result = item.run()
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
    except VerdictTimeout:
        reason = TIMEOUT
    except Exception as exc:  # a raising verdict is a failed verdict, not a crash
        reason = f"raised {type(exc).__name__}: {exc}"
    elapsed = time.perf_counter() - start
    if reason is None:
        try:
            reason, payload = item.check(result)
        except Exception as exc:  # so is a result the re-check cannot read
            reason = f"check raised {type(exc).__name__}: {exc}"
    counts = {}
    if tracer is not None:
        counts = {k: v - before.get(k, 0) for k, v in tracer.counters.items()}
    return elapsed, reason, None if payload is None else digest(payload), counts


def tail(times):
    """Highest ladder percentile with at least ten inputs beyond it, or the maximum."""
    if not times:
        return 0.0, "0 (no timed verdicts)"
    level = next((p for p in TAIL_LADDER if len(times) * (100 - p) / 100 >= 10), None)
    if level is None:
        return max(times), "the maximum (too few inputs for a percentile with ten beyond it)"
    ordered = sorted(times)
    return ordered[math.ceil(level / 100 * len(ordered)) - 1], f"the p{level}"


def ratio(part, whole):
    return part / whole if whole else 0.0


def emit_seconds(spans):
    """Report JSON plus its write: from verify_image's return to cli.main's."""
    by_id = {s[0]: s for s in spans}
    total = 0.0
    for _, parent, name, _, end, _ in spans:
        owner = by_id.get(parent)
        if name == "period.verify_image" and owner is not None and owner[2] == "cli.main":
            total += owner[4] - end
    return total


def layer_metrics(tracer, workload):
    c = tracer.counters
    inc = tracer.inclusive
    out = {
        "whittaker.units_enumerated": (c["units"], "count"),
        "whittaker.cosets_visited": (c["cosets"], "count"),
        "whittaker.cosets_predicted": (
            sum(predicted_cosets(*it.table) for it in workload.items if it.table), "count"),
        "whittaker.coefficient_calls": (c["coefficient_calls"], "count"),
        "whittaker.coefficient_self_s": (tracer.coefficient_self, "s"),
        "whittaker.nonzero_eval_ratio": (ratio(c["nonzero_evaluations"], c["evaluations"]),
                                         "ratio"),
        "scalars.cyclotomic_built": (c["cyclotomic_built"], "count"),
        "family.evaluate_calls": (c["evaluations"], "count"),
        "family.evaluate_s": (inc["family.evaluate"], "s"),
        "family.big_cell_split_s": (inc["family.big_cell_split"], "s"),
        "localfield.iwasawa_calls": (c["iwasawa_calls"], "count"),
        "localfield.iwasawa_s": (inc["localfield.iwasawa_decompose"], "s"),
        "period.zeta_window_s": (inc["period.zeta_window"], "s"),
        "period.verify_image_s": (inc["period.verify_image"], "s"),
        "period.tail_retries": (c["tail_retries"], "count"),
        "laurent.clear_s": (inc["laurent.ZPoly.clear_l_factor"], "s"),
        "groebner.membership_calls": (c["memberships"], "count"),
        "groebner.membership_s": (inc["groebner.MembershipSolver.membership"], "s"),
        "groebner.cert_check_s": (inc["groebner.Certificate.holds_for"], "s"),
        "groebner.division_fastpath_ratio": (ratio(tracer.fastpath, c["memberships"]), "ratio"),
        "groebner.member_ratio": (ratio(c["members"], c["memberships"]), "ratio"),
        "cli.parse_s": (inc["family.vector_from_json"], "s"),
        "cli.emit_s": (emit_seconds(tracer.spans), "s"),
        "trace.spans": (len(tracer.spans), "count"),
    }
    for module in MODULES:
        out[f"{module}.self_s"] = (tracer.self_time[module], "s")
    return out


def compare_digests(name, seed, items, digests, baseline):
    """Indices of verdicts whose digest differs from the seed commit's, and a status line."""
    anchors = baseline["anchors"].get(name, {})
    recorded = baseline["seeds"].get(name, {}).get(str(seed))
    bad = set()
    for i, item in enumerate(items):
        want = anchors.get(item.name) if item.anchor else None
        if recorded is not None:
            want = recorded["verdicts"][i]
        if want is not None and digests[i] != want:
            bad.add(i)
    if recorded is None:
        status = f"anchors only ({len(anchors)} recorded; seed {seed} not recorded)"
    else:
        status = "recorded for this seed"
    return bad, f"{status}, {len(bad)} mismatched"


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def time_setup(set_up):
    """Seconds of one more set-up, whose library and inputs are then dropped.

    The library the workload uses stays in sys.modules, so an import made
    inside one of its functions still finds the modules it was loaded with.
    """
    saved = {m: mod for m, mod in sys.modules.items()
             if m == "toricperiod" or m.startswith("toricperiod.")}
    start = time.perf_counter()
    set_up()
    elapsed = time.perf_counter() - start
    sys.modules.update(saved)
    return elapsed


def plan_runs(costs, remaining):
    """Input indices in the order to run them again within `remaining` seconds.

    `costs` maps an input to the seconds of its first run.  Each input runs
    again at least MIN_RUNS - 1 times; the rest of the time is split evenly
    between the inputs, and each takes as many runs as fit in its part, so a
    quick input runs many times and a slow one only its minimum.  An input's
    runs are spread evenly over the plan, so its median takes in the whole
    run rather than one stretch of it.
    """
    def runs(budget):
        return {i: 0 if c == math.inf else max(MIN_RUNS - 1, int(budget / max(c, 1e-6)))
                for i, c in costs.items()}

    low, high = 0.0, remaining
    for _ in range(40):
        mid = (low + high) / 2
        if sum(costs[i] * n for i, n in runs(mid).items() if n) <= remaining:
            low = mid
        else:
            high = mid
    events = [((k + 0.5) / n, i) for i, n in runs(low).items() for k in range(n)]
    return [i for _, i in sorted(events)]


def measure(workload, lib, seconds, trace, set_up, setups):
    """Closed-loop runs of the inputs for `seconds`.

    A first pass runs every input once; then the inputs run again in the
    order `plan_runs` gives, skipping a run that would not end in time,
    judged by the input's last time.  With `trace`, every input runs traced
    and then, if it still fits before the run's time limit, untraced, so
    both see the same state of the machine and the per-layer numbers come
    first.  Between verdicts, `set_up` is timed again every `seconds` /
    SETUPS and appended to `setups`.  Returns (untraced samples, traced
    samples, a tracer for the first pass and one for the runs after it); a
    sample is (input index, seconds or None, failure or None, digest, work
    counts).
    """
    deadline = START + LIMIT_S
    stop = min(time.perf_counter() + seconds, deadline)
    plain, traced, tracers = [], [], []
    last = {}
    next_setup = time.perf_counter() + seconds / SETUPS

    def run(index, tracer):
        nonlocal next_setup
        if len(setups) < SETUPS and time.perf_counter() >= next_setup:
            setups.append(time_setup(set_up))
            next_setup += seconds / SETUPS
        item = workload.items[index]
        if tracer is None:
            row = run_verdict(item, workload.timeout_s, deadline)
            plain.append((index,) + row)
        else:
            tracer.verdict = index
            row = run_verdict(item, workload.timeout_s, deadline, tracer)
            traced.append((index,) + row)
            if row[0] is not None and time.perf_counter() + row[0] < deadline:
                plain.append((index,) + run_verdict(item, workload.timeout_s, deadline))
        last[index] = math.inf if row[0] is None else row[0]

    first = Tracer(lib) if trace else None
    for index in range(len(workload.items)):
        run(index, first)
    again = Tracer(lib) if trace else None
    for index in plan_runs(last, stop - time.perf_counter()):
        if time.perf_counter() + last[index] <= stop:
            run(index, again)
    return plain, traced, [t for t in (first, again) if t is not None]


def first_digests(samples, count):
    """Each input's first digest, in sample order."""
    reference = [None] * count
    for index, _, _, d, _ in samples:
        if reference[index] is None:
            reference[index] = d
    return reference


def judge(samples, reference, mismatched):
    """Each sample's failure: its own, or a digest that differs from the first
    run of its input (nondeterminism, or tracing changed an output) or from
    the seed commit."""
    reasons = []
    for index, _, reason, d, _ in samples:
        if reason is None and d != reference[index]:
            reason = "output digest differs between runs"
        if reason is None and index in mismatched:
            reason = "output digest differs from the seed commit"
        reasons.append(reason)
    return reasons


def input_times(samples, count):
    """Seconds of each input's runs, in run order; a run cut by a timeout has
    no meaningful time and is left out."""
    times = [[] for _ in range(count)]
    for index, seconds, reason, *_ in samples:
        if reason != TIMEOUT:
            times[index].append(seconds)
    return times


def end_to_end_metrics(setups, plain, reasons, count):
    # Each input's time is the median of its runs, so a slow moment of the
    # machine in one run moves neither the rate nor the percentiles.
    runs = [r for r in input_times(plain, count) if r]
    times = [statistics.median(r) for r in runs]
    tail_value, tail_label = tail(times)
    ok = reasons.count(None)
    ok_ratio = ratio(ok, len(reasons))
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "verdicts_per_s": (ratio(len(times) * ok_ratio, sum(times)), "1/s"),
        "verdict_p50_s": (statistics.median(times) if times else 0.0, "s"),
        "verdict_tail_s": (tail_value, "s"),
        "verdict_ok_ratio": (ok_ratio, "ratio"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    counts = sorted(len(r) for r in runs) or [0]
    notes = [
        f"{'verdict_fail_ratio':<22} {1 - ok_ratio:.6g} ratio "
        f"({len(reasons) - ok} of {len(reasons)} untraced verdicts)",
        f"verdict_p50_s and verdict_tail_s are over {len(times)} of {count} inputs, each the "
        f"median of its {counts[0]} to {counts[-1]} runs not cut by a timeout; "
        f"the tail is {tail_label}",
        "verdicts_per_s is the inputs that passed per second of the summed input times",
    ]
    return metrics, notes


def per_layer_metrics(workload, plain, traced, tracers):
    """Work and time of the first traced pass, which runs every input once."""
    metrics = layer_metrics(tracers[0], workload)
    # Overhead over the inputs timed both ways: the sum of their median traced
    # times against the sum of their median untraced times.
    count = len(workload.items)
    pairs = [(t, u) for t, u in zip(input_times(traced, count), input_times(plain, count))
             if t and u]
    traced_s = sum(statistics.median(t) for t, _ in pairs)
    plain_s = sum(statistics.median(u) for _, u in pairs)
    metrics["trace.overhead_ratio"] = (ratio(traced_s, plain_s) - 1, "ratio")
    notes = [f"tracing overhead {metrics['trace.overhead_ratio'][0]:+.3%} "
             f"({traced_s:.3f} s traced vs {plain_s:.3f} s untraced, "
             f"over the {len(pairs)} of {count} inputs timed both ways)"]
    # The coset cost model must match the traced work on every table vector.
    tables = [(i, it) for i, it in enumerate(workload.items) if it.table]
    misses = 0
    for i, it in tables:
        want, got = predicted_cosets(*it.table), traced[i][4].get("cosets", 0)
        if want != got:
            misses += 1
            notes.append(f"COST MODEL {it.name}: predicted {want}, visited {got}")
    notes.append(f"cosets predicted == visited on {len(tables) - misses} of "
                 f"{len(tables)} table vectors")
    return metrics, notes


def main(argv=None):
    args = parse_args(argv)
    stem = f"{args.workload}-seed{args.seed}"
    workdir = OUT / f"{stem}-trace{args.trace}"

    def set_up():
        lib = load_library()
        return lib, WORKLOADS[args.workload](lib, args.seed, workdir)

    try:
        lib, workload = set_up()
    except LibraryMissing as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    setups = [time.perf_counter() - START]
    OUT.mkdir(exist_ok=True)

    signal.signal(signal.SIGALRM, _alarm)
    plain, traced, tracers = measure(workload, lib, args.seconds, args.trace, set_up, setups)
    items = workload.items
    reference = first_digests(plain + traced, len(items))
    baseline = json.loads(BASELINE.read_text())
    mismatched, baseline_status = compare_digests(
        args.workload, args.seed, items, reference, baseline)
    plain_reasons = judge(plain, reference, mismatched)
    all_reasons = plain_reasons + judge(traced, reference, mismatched)
    failures = {}
    for (index, *_), reason in zip(plain + traced, all_reasons):
        if reason is not None:
            failures.setdefault(items[index].name, reason)
    attempted = len(all_reasons)
    failed = attempted - all_reasons.count(None)

    metrics, notes = end_to_end_metrics(setups, plain, plain_reasons, len(items))
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{len(plain)} untraced and {len(traced)} traced runs of {len(items)} inputs")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<22} {value:.6g} {unit}")
    notes.append(f"digest {digest(reference)}: seed-commit baseline {baseline_status}")
    notes.extend(f"FAILED {name}: {reason}" for name, reason in failures.items())

    report = {
        "workload": args.workload,
        "seed": args.seed,
        "digest": digest(reference),
        "verdicts": [
            {"name": it.name, "digest": reference[i], "seconds": seconds}
            for i, (it, seconds) in enumerate(zip(items, input_times(plain, len(items))))
        ],
        "failures": failures,
        "setups_s": setups,
        "end_to_end": {k: v for k, (v, _) in metrics.items()},
    }
    if args.trace:
        metrics, layer_notes = per_layer_metrics(workload, plain, traced, tracers)
        notes.extend(layer_notes)
        report["per_layer"] = {k: v for k, (v, _) in metrics.items()}
        for row, sample in zip(report["verdicts"], traced):
            row["work"] = sample[4]
        with open(OUT / f"{stem}-spans.jsonl", "w") as fh:
            for pass_index, t in enumerate(tracers):
                for span in t.spans:
                    fh.write(json.dumps((pass_index,) + span) + "\n")
    for note in notes:
        print(f"  {note}")
    (OUT / f"{stem}-trace{args.trace}.json").write_text(json.dumps(report, indent=1))

    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
