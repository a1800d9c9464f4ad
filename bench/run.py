"""Benchmark for rcoxeter: seeded workloads, oracle-checked, end to end and by layer.

Run from the root of a checkout (the package need not be installed; the
benchmark puts ``src`` on the path and runs the CLI as ``python -m
rcoxeter.cli``):

    python3 bench/run.py --workload hyperbolic --seed 0 --seconds 30 --trace 0
    python3 bench/run.py --workload hyperbolic --seed 0 --seconds 30 --trace 1
    python3 bench/run.py --self-check

One process, no threads; CLI subprocesses run one at a time.  A run
repeats the workload's whole operation mix until ``--seconds`` are used up
and reports medians over the repetitions.  With ``--trace 0`` the last line
of stdout is a JSON object with the end-to-end metrics, with ``--trace 1``
the per-layer metrics of a traced run.  Every output is checked; a check
that fails, or a call that raises, counts as a failed operation.  A
readable table goes to stderr and ``--out FILE`` writes every sample with
the run's provenance.  See README.md for what each workload and metric is for.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import io
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
from contextlib import nullcontext, redirect_stdout
from dataclasses import asdict
from pathlib import Path
from time import perf_counter

import checks
from calibration import REFERENCE_S, kernel_seconds
from census import Census, brute_force_cliques, census, maximum_clique
from tracing import Tracer
from workloads import SELF_CHECK, WORKLOADS, make_inputs

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_build"
DIGESTS = Path(__file__).resolve().parent / "digests.json"
DEFAULT_SEED = 0

END_TO_END = {
    "setup_s": "s",
    "certify_s": "s",
    "certify_cli_s": "s",
    "ball_s": "s",
    "query_s": "s",
    "export_s": "s",
    "nf_s": "s",
    "peak_rss_mb": "MiB",
    "ok_ratio": "ok/attempted",
}

PER_LAYER = {
    "davis.enumerate_self_s": "s",
    "words.multiply_calls.davis": "count",
    "words.multiply_s.davis": "s",
    "davis.useful_ratio": "ratio",
    "davis.index_s": "s",
    "davis.vertices": "count",
    "davis.cubes": "count",
    "davis.cube_top_dim": "count",
    "spherical.cliques": "count",
    "davis.flag_check_s": "s",
    "davis.cubes_at_vertex_s": "s",
    "davis.canonical_cube_s": "s",
    "davis.export_json_s": "s",
    "davis.export_dot_s": "s",
    "davis.export_bytes": "bytes",
    "words.normal_form_s": "s",
    "words.letters_in": "count",
    "words.letters_out": "count",
    "involution.fixed_loci_s": "s",
    "involution.invariant_cubes_s": "s",
    "involution.cubes_examined": "count",
    "involution.invariant_ratio": "ratio",
    "words.conjugate_calls.involution": "count",
    "words.conjugate_s.involution": "s",
    "probe.displacement_profile_s": "s",
    "probe.certify_self_s": "s",
    "words.conjugate_calls.probe": "count",
    "words.conjugate_s.probe": "s",
    "spherical.all_cliques_s": "s",
    "spherical.maximum_spherical_s": "s",
    "graphs.parse_s": "s",
    "cli.main_s": "s",
    "cli.startup_s": "s",
    "reflection.oracle_s": "s",
    "trace.overhead_ratio": "ratio",
}

#: Fresh-interpreter set-up: import the package and parse the graph file.
SETUP_CODE = (
    "import sys, rcoxeter\n"
    "with open(sys.argv[1]) as f:\n"
    "    print(' '.join(rcoxeter.parse_graph(f.read()).labels))\n"
)
#: Samples of the words and products checked against the matrix oracle.
ORACLE_SAMPLE = 64
#: Cubes whose membership is checked by searching the axis subsets.
COSET_SAMPLE = 16


class Bench:
    """One workload at one seed: its inputs, oracles, samples and ledger."""

    def __init__(self, workload, seed: int, digests: dict | None):
        from rcoxeter import all_cliques, parse_graph

        self.w = workload
        self.seed = seed
        self.inputs = make_inputs(workload, seed)
        WORK.mkdir(exist_ok=True)
        self.graph_path = WORK / f"{workload.name}-{seed}.json"
        self.graph_path.write_text(self.inputs.graph_text)
        self.graph = parse_graph(self.inputs.graph_text)
        order = self.inputs.order
        index = {label: i for i, label in enumerate(order)}
        self.edges = [(index[a], index[b]) for a, b in workload.edges]
        self.cliques = brute_force_cliques(len(order), self.edges)
        self.top = maximum_clique(self.cliques)
        self.complete = len(self.cliques) == 2 ** len(order)
        self.census = census(self.cliques, workload.radius)
        self.reliable = workload.radius - len(self.top)
        self.oracle = checks.Oracle(self.graph, self.edges)
        self.digests = digests
        self.observed_digests: dict[str, str] = {}
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p
        )
        #: calibrated samples, the raw wall times they came from, and the
        #: latest calibration factor of each operation
        self.samples: dict[str, list[float]] = {}
        self.raw: dict[str, list[float]] = {}
        self.factor: dict[str, float] = {}
        self.layers: dict[str, list[float]] = {}
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.tracer = None
        self.picks = None
        #: operations whose output already passed the full oracle checks;
        #: later repetitions get the cheap checks only
        self.verified: set[str] = set()
        self.reference_words = None
        self.export_bytes = None
        self.letters = None
        self.kernel_s = kernel_seconds()
        self.expect("graph", lambda: checks.check_graph(self.graph, order, workload.edges))
        self.expect(
            "cliques",
            lambda: [] if set(all_cliques(self.graph)) == set(self.cliques)
            else ["all_cliques differs from the brute-force clique list"],
        )

    # -- bookkeeping ----------------------------------------------------

    def expect(self, name: str, check) -> bool:
        """Count one operation; it fails if ``check`` raises or reports problems."""
        self.attempted += 1
        try:
            problems = check()
        except Exception as exc:  # a raising operation is a failed operation
            problems = [f"{type(exc).__name__}: {exc}"]
        if problems:
            self.failed += 1
            self.problems.extend(f"{name}: {p}" for p in problems[:3])
            return False
        return True

    def measure(self, metric: str, call, check):
        """Time ``call()`` once after a full collection; check its result.

        The sample kept is in calibrated seconds: the wall time divided by
        the mean of the kernel times right before and right after the call,
        times ``REFERENCE_S`` (see calibration.py).  Returns the result, or
        None when the call raised or a check failed, in which case no
        sample is kept.
        """
        box = {}

        def run():
            gc.collect()
            start = perf_counter()
            box["result"] = call()
            box["seconds"] = perf_counter() - start
            before, self.kernel_s = self.kernel_s, kernel_seconds()
            box["factor"] = REFERENCE_S / ((before + self.kernel_s) / 2)
            return check(box["result"])

        if not self.expect(metric, run):
            return None
        self.factor[metric] = box["factor"]
        self.samples.setdefault(metric, []).append(box["seconds"] * box["factor"])
        self.raw.setdefault(metric, []).append(box["seconds"])
        return box["result"]

    def span(self, name: str):
        return self.tracer.span(name) if self.tracer else nullcontext()

    def digest(self, key: str, text: str) -> list[str]:
        """Byte-identity: same text every repetition, and the committed digest."""
        digest = hashlib.sha256(text.encode()).hexdigest()
        seen = self.observed_digests.setdefault(key, digest)
        if seen != digest:
            return [f"{key} output changed between repetitions"]
        want = (self.digests or {}).get(key)
        if want is not None and want != digest:
            return [f"{key} sha256 {digest} differs from the committed {want}"]
        return []

    # -- operations -----------------------------------------------------

    def setup(self, keep: bool = True) -> None:
        argv = [sys.executable, "-c", SETUP_CODE, str(self.graph_path)]
        want = " ".join(self.inputs.order) + "\n"

        def check(proc):
            if proc.returncode != 0 or proc.stdout != want:
                return [f"set-up exited {proc.returncode}: {proc.stderr.strip()[-200:]}"]
            return []

        call = lambda: subprocess.run(  # noqa: E731
            argv, capture_output=True, text=True, env=self.env, cwd=ROOT, timeout=120
        )
        if keep:
            self.measure("setup_s", call, check)
        else:
            self.expect("setup warm-up", lambda: check(call()))

    def certify(self, metric: str = "certify_s"):
        from rcoxeter import certify

        def call():
            with self.span("probe.certify"):
                return certify(self.graph, self.w.radius)

        return self.measure(
            metric,
            call,
            lambda cert: checks.check_certificate(
                cert.as_dict(), self.inputs.order, self.w.edges, self.w.radius,
                self.top, self.complete,
            ),
        )

    def _check_cli_output(self, cert, code: int, stdout: str) -> list[str]:
        if code != 0:
            return [f"certify exited {code}"]
        if cert is None:
            return ["no in-process certificate to compare with"]
        if stdout != json.dumps(cert.as_dict()) + "\n":
            return ["CLI stdout differs from the in-process certificate"]
        return self.digest("certify", stdout)

    def certify_cli(self, cert) -> None:
        argv = [
            sys.executable, "-m", "rcoxeter.cli", "certify",
            "--graph", str(self.graph_path), "--radius", str(self.w.radius),
        ]
        self.measure(
            "certify_cli_s",
            lambda: subprocess.run(
                argv, capture_output=True, text=True, env=self.env, cwd=ROOT, timeout=170
            ),
            lambda proc: self._check_cli_output(cert, proc.returncode, proc.stdout),
        )

    def cli_main(self, cert) -> None:
        from rcoxeter.cli import main

        argv = ["certify", "--graph", str(self.graph_path), "--radius", str(self.w.radius)]

        def call():
            out = io.StringIO()
            with redirect_stdout(out):
                code = main(argv)
            return code, out.getvalue()

        self.measure("cli.main_s", call, lambda r: self._check_cli_output(cert, *r))

    def cli_startup(self) -> None:
        """A CLI subprocess that only starts, imports and prints its usage."""
        argv = [sys.executable, "-m", "rcoxeter.cli", "--help"]
        self.measure(
            "cli.startup_s",
            lambda: subprocess.run(
                argv, capture_output=True, text=True, env=self.env, cwd=ROOT, timeout=60
            ),
            lambda proc: [] if proc.returncode == 0 and proc.stdout.startswith("usage:")
            else [f"rcoxeter --help exited {proc.returncode}"],
        )

    def parse(self) -> None:
        from rcoxeter import parse_graph

        def call():
            with self.span("graphs.parse_graph"):
                return parse_graph(self.inputs.graph_text)

        self.measure(
            "parse_s", call, lambda g: checks.check_graph(g, self.inputs.order, self.w.edges)
        )

    def ball(self):
        from rcoxeter import build_ball, build_involution, fixed_loci

        def call():
            with self.span("davis.build_ball"):
                return build_ball(self.graph, self.w.radius)

        def check(ball):
            problems = checks.check_ball(ball, self.census)
            if "ball" not in self.verified and not problems:
                problems = checks.check_shortlex(self.oracle, ball.vertices)
                report = fixed_loci(build_involution(self.graph), ball)
                problems += checks.check_fixed_loci(report, self.top)
                if not problems:
                    self.verified.add("ball")
            return problems

        ball = self.measure("ball_s", call, check)
        if ball is not None and self.picks is None:
            self.picks = self._pick(ball)
        return ball

    def _pick(self, ball):
        """Seeded query vertices, canonical-cube queries and product pairs.

        Queried vertices are those whose every coset cube fits in the ball,
        so each must meet exactly one cube per clique.
        """
        rng = self.inputs.rng
        reach = self.w.radius if self.complete else self.reliable
        eligible = [v for v in ball.vertices if len(v) <= reach]
        axes = self.cliques[1:]
        vertices = [rng.choice(eligible) for _ in range(self.w.queries)]
        canonical = [(rng.choice(eligible), rng.choice(axes)) for _ in range(self.w.queries)]
        pairs = [
            (rng.choice(ball.vertices), rng.choice(ball.vertices))
            for _ in range(self.w.pairs)
        ]
        return vertices, canonical, pairs

    def query(self, ball) -> None:
        from rcoxeter import canonical_cube, cubes_at_vertex, links_flag_check

        vertices, canonical, _ = self.picks

        def call():
            with self.span("davis.links_flag_check"):
                flag = links_flag_check(ball)
            with self.span("davis.cubes_at_vertex"):
                grouped = [cubes_at_vertex(ball, v) for v in vertices]
            with self.span("davis.canonical_cube"):
                cubes = [canonical_cube(g, axis, self.graph) for g, axis in canonical]
            return flag, grouped, cubes

        def check(result):
            flag, grouped, cubes = result
            problems = checks.check_flag(flag, self.census, self.reliable)
            for v, at_v in zip(vertices, grouped):
                problems += checks.check_cubes_at_vertex(v, at_v, self.census)
            for (g, axis), cube in zip(canonical, cubes):
                if cube.axis != axis or not ball.has_cube(cube):
                    problems.append(f"canonical cube of {g} on {axis} is {cube}")
            if "query" not in self.verified and not problems:
                for (g, axis), cube in zip(canonical, cubes):
                    if cube not in cubes_at_vertex(ball, g)[len(axis)]:
                        problems.append(f"canonical cube {cube} is not among the cubes at {g}")
                for v, at_v in list(zip(vertices, grouped))[:COSET_SAMPLE]:
                    problems += checks.check_cube_contains(self.oracle, v, at_v[max(at_v)][0])
                for (g, _), cube in list(zip(canonical, cubes))[:COSET_SAMPLE]:
                    problems += checks.check_cube_contains(self.oracle, g, cube)
                if not problems:
                    self.verified.add("query")
            return problems

        self.measure("query_s", call, check)

    def export(self, ball) -> None:
        from rcoxeter import export_complex

        def call():
            with self.span("davis.export_json"):
                text_json = export_complex(ball, "json")
            with self.span("davis.export_dot"):
                text_dot = export_complex(ball, "dot")
            return text_json, text_dot

        def check(texts):
            self.export_bytes = len(texts[0].encode()) + len(texts[1].encode())
            return (
                checks.check_exports(*texts, self.w.radius, self.reliable, self.census)
                + self.digest("export_json", texts[0])
                + self.digest("export_dot", texts[1])
            )

        self.measure("export_s", call, check)

    def normal_forms(self) -> None:
        from rcoxeter import multiply, normal_form

        graph = self.graph
        long_words = self.inputs.long_words
        words = self.inputs.words + tuple(word for word, _ in long_words)
        pairs = self.picks[2]

        def call():
            with self.span("words.normal_form"):
                outs = [normal_form(word, graph) for word in words]
            with self.span("words.multiply"):
                products = [multiply(x, y, graph) for x, y in pairs]
            return outs, products

        def check(result):
            outs, products = result
            self.letters = (sum(map(len, words)), sum(map(len, outs)))
            tail = outs[len(outs) - len(long_words):] if long_words else []
            problems = [
                f"long word of {len(word)} letters reduced to {len(out)}, expected {len(want)}"
                for (word, want), out in zip(long_words, tail)
                if out != want
            ]
            if self.reference_words is not None:
                if result != self.reference_words:
                    problems.append("normal forms changed between repetitions")
                return problems
            sample = list(zip(words, outs))[:ORACLE_SAMPLE]
            if long_words:
                shortest = min(range(len(long_words)), key=lambda k: len(long_words[k][0]))
                sample.append((long_words[shortest][0], tail[shortest]))
            problems += checks.check_words(self.oracle, sample, lambda w: normal_form(w, graph))
            triples = [(x, y, p) for (x, y), p in zip(pairs, products)][:ORACLE_SAMPLE]
            problems += checks.check_products(self.oracle, triples)
            if not problems:
                self.reference_words = result
            return problems

        self.measure("nf_s", call, check)

    # -- repetitions ----------------------------------------------------

    def rep(self, traced: bool) -> None:
        """One repetition of the whole operation mix.

        The traced variant runs certify once more under the tracer, so that
        the untraced time right before it gives the tracing overhead, runs
        the in-process operations under the tracer, and adds ``cli.main``
        in process and a CLI start-up.
        """
        self.kernel_s = kernel_seconds()
        self.setup()
        cert = self.certify()
        ball = None
        tracer = Tracer() if traced else None
        with tracer.installed() if tracer else nullcontext():
            self.tracer = tracer
            try:
                if traced:
                    self.certify("traced_certify_s")
                    self.parse()
                ball = self.ball()
                if ball is None:
                    for step in ("query_s", "export_s", "nf_s"):
                        self.expect(step, lambda: ["skipped: no ball was built"])
                else:
                    self.query(ball)
                    self.export(ball)
                    self.normal_forms()
            finally:
                self.tracer = None
        self.certify_cli(cert)
        if traced:
            self.cli_main(cert)
            self.cli_startup()
            if ball is not None:
                self.expect("trace", lambda: self._layers(tracer, ball))

    def _layers(self, tr, ball) -> list[str]:
        from rcoxeter import all_cliques

        cert_root = "probe.certify"
        build = tr.find("davis.build_ball", "davis.build_ball")[0]
        certify = tr.find("probe.certify", cert_root)[0]
        invariant = tr.find("involution.invariant_cubes", cert_root)[0]
        mult_calls, mult_s = tr.calls("words.multiply@davis", "davis.build_ball")
        conj_inv = tr.calls("words.conjugate@involution", cert_root)
        conj_probe = tr.calls("words.conjugate@probe", cert_root)
        examined = sum(1 for c in ball.cubes if len(c.base) <= ball.reliable_radius)
        s, f = self.samples, self.factor

        def top(name):  # a span the benchmark opened around a public call
            return tr.seconds(name, name)

        def in_cert(name):
            return tr.seconds(name, cert_root)

        # span times are scaled by the factor of the operation they ran in
        at_ball, at_cert = f["ball_s"], f["traced_certify_s"]
        at_query, at_export, at_nf = f["query_s"], f["export_s"], f["nf_s"]
        values = {
            "davis.enumerate_self_s": build.self_s * at_ball,
            "words.multiply_calls.davis": mult_calls,
            "words.multiply_s.davis": mult_s * at_ball,
            "davis.useful_ratio": (len(ball.vertices) + len(ball.cubes)) / mult_calls,
            "davis.index_s": tr.seconds("davis.Ball", "davis.build_ball") * at_ball,
            "davis.vertices": len(ball.vertices),
            "davis.cubes": len(ball.cubes),
            "davis.cube_top_dim": len(ball.cell_counts()) - 1,
            "spherical.cliques": len(all_cliques(self.graph)),
            "davis.flag_check_s": top("davis.links_flag_check") * at_query,
            "davis.cubes_at_vertex_s": top("davis.cubes_at_vertex") * at_query,
            "davis.canonical_cube_s": top("davis.canonical_cube") * at_query,
            "davis.export_json_s": top("davis.export_json") * at_export,
            "davis.export_dot_s": top("davis.export_dot") * at_export,
            "davis.export_bytes": self.export_bytes,
            "words.normal_form_s": top("words.normal_form") * at_nf,
            "words.letters_in": self.letters[0],
            "words.letters_out": self.letters[1],
            "involution.fixed_loci_s": in_cert("involution.fixed_loci") * at_cert,
            "involution.invariant_cubes_s": invariant.seconds * at_cert,
            "involution.cubes_examined": examined,
            "involution.invariant_ratio": invariant.count / examined,
            "words.conjugate_calls.involution": conj_inv[0],
            "words.conjugate_s.involution": conj_inv[1] * at_cert,
            "probe.displacement_profile_s": in_cert("probe.displacement_profile") * at_cert,
            "probe.certify_self_s": certify.self_s * at_cert,
            "words.conjugate_calls.probe": conj_probe[0],
            "words.conjugate_s.probe": conj_probe[1] * at_cert,
            "spherical.all_cliques_s": tr.calls("spherical.all_cliques@", cert_root)[1] * at_cert,
            "spherical.maximum_spherical_s": tr.calls("spherical.maximum_spherical@", cert_root)[1]
            * at_cert,
            "graphs.parse_s": top("graphs.parse_graph") * f["parse_s"],
            "cli.main_s": s["cli.main_s"][-1],
            "cli.startup_s": s["cli.startup_s"][-1],
            "trace.overhead_ratio": s["traced_certify_s"][-1] / s["certify_s"][-1],
        }
        for name, value in values.items():
            self.layers.setdefault(name, []).append(value)
        problems = []
        if len(ball.vertices) != self.census.vertices or len(ball.cubes) != sum(self.census.cubes):
            problems.append("traced ball does not match the census")
        if values["spherical.cliques"] != len(self.cliques):
            problems.append("clique count differs from the brute-force list")
        return problems

    def run(self, seconds: float, traced: bool) -> int:
        """Repeat the mix while another repetition still fits; return the count."""
        self.setup(keep=False)
        self.setup()
        self.setup()
        deadline = perf_counter() + seconds
        reps = 0
        while True:
            start = perf_counter()
            self.rep(traced)
            reps += 1
            now = perf_counter()
            if now + (now - start) > deadline:
                return reps


# -- reporting ----------------------------------------------------------


def summary(samples: list[float]) -> dict:
    """Median and the highest percentile with at least ten samples beyond it."""
    ordered = sorted(samples)
    n = len(ordered)
    out = {"median": statistics.median(ordered), "n": n, "percentile": None, "samples": samples}
    for p in (99.9, 99, 95, 90, 75, 50):
        rank = math.ceil(n * p / 100)
        if n - rank >= 10:
            out["percentile"] = {"p": p, "value": ordered[rank - 1]}
            break
    return out


def metrics_of(bench: Bench, traced: bool) -> dict:
    """Medians over the run's repetitions."""
    if traced:
        values = {
            name: statistics.median(bench.layers[name])
            for name in PER_LAYER
            if name in bench.layers
        }
        factors = [
            b / a for name in bench.raw for a, b in zip(bench.raw[name], bench.samples[name])
        ]
        values["reflection.oracle_s"] = bench.oracle.seconds * statistics.median(factors)
        units = PER_LAYER
    else:
        values = {
            name: statistics.median(bench.samples[name])
            for name in END_TO_END
            if bench.samples.get(name)
        }
        values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        values["ok_ratio"] = (bench.attempted - bench.failed) / bench.attempted
        units = END_TO_END
    return {
        name: {"value": values.get(name), "unit": unit} for name, unit in units.items()
    }


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def _git_sha() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], capture_output=True, text=True, cwd=ROOT, timeout=30
        )
    except OSError:  # no git on this machine
        return None
    return proc.stdout.strip() or None


def provenance(bench: Bench, args, reps: int) -> dict:
    return {
        "machine": {
            "cpu": _cpu_model(),
            "platform": platform.platform(),
            "node": platform.node(),
        },
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "git_sha": _git_sha(),
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "workload": asdict(bench.w),
        "repetitions": reps,
        "samples": {name: len(v) for name, v in {**bench.samples, **bench.layers}.items()},
    }


def print_table(bench: Bench, metrics: dict, reps: int) -> None:
    err = sys.stderr
    print(
        f"{bench.w.name} seed={bench.seed} repetitions={reps} "
        f"attempted={bench.attempted} failed={bench.failed}",
        file=err,
    )
    for name, m in metrics.items():
        samples = bench.samples.get(name) or bench.layers.get(name) or []
        value = m["value"]
        shown = "-" if value is None else f"{value:.6g}"
        print(f"  {name:34} {shown:>14} {m['unit']:<13} n={len(samples)}", file=err)
    for problem in bench.problems[:20]:
        print(f"  FAILED {problem}", file=err)


def load_digests(workload: str, seed: int) -> dict | None:
    if seed != DEFAULT_SEED:
        return None
    return json.loads(DIGESTS.read_text()).get(workload)


def self_check() -> int:
    """Every check on tiny inputs, plus corrupted outputs that must fail."""
    from rcoxeter import build_ball, normal_form

    ok = True
    for workload in SELF_CHECK:
        bench = Bench(workload, DEFAULT_SEED, None)
        bench.setup()
        bench.rep(traced=False)
        bench.rep(traced=True)
        ok = ok and bench.failed == 0
        print(
            f"{workload.name}: attempted={bench.attempted} failed={bench.failed}",
            file=sys.stderr,
        )
        for problem in bench.problems:
            print(f"  FAILED {problem}", file=sys.stderr)

    # The checker must catch errors: each corrupted case is one failed operation.
    bench = Bench(SELF_CHECK[0], DEFAULT_SEED, None)
    good = bench.census
    bad_count = Census(good.radius, (good.spheres[0], good.spheres[1] + 1) + good.spheres[2:],
                       good.cubes, good.cliques_by_size)
    word = bench.inputs.words[0]
    right = normal_form(word, bench.graph)
    wrong = ((right[0] + 1) % bench.graph.n,) + right[1:] if right else (0,)
    cases = {
        "corrupted sphere count": lambda: checks.check_ball(
            build_ball(bench.graph, good.radius), bad_count
        ),
        "corrupted normal form": lambda: checks.check_words(
            bench.oracle, [(word, wrong)], lambda w: normal_form(w, bench.graph)
        ),
    }
    for name, case in cases.items():
        before = bench.failed
        bench.expect(name, case)
        caught = bench.failed == before + 1
        ok = ok and caught
        print(f"{name}: {'caught' if caught else 'NOT caught'}", file=sys.stderr)
    print(json.dumps({"self_check": "pass" if ok else "fail"}))
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", metavar="FILE", help="write samples and provenance here")
    parser.add_argument("--self-check", action="store_true", help="run every check on tiny inputs")
    args = parser.parse_args(argv)
    if not (SRC / "rcoxeter" / "__init__.py").is_file():
        print(f"bench: no rcoxeter package under {SRC}; run from a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.self_check:
        return self_check()
    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(WORKLOADS)}")
    # One CPU for this process and the subprocesses it starts, so that the
    # calibration kernel measures the speed of the CPU the operations run on.
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    bench = Bench(WORKLOADS[args.workload], args.seed, load_digests(args.workload, args.seed))
    reps = bench.run(args.seconds, traced=bool(args.trace))
    metrics = metrics_of(bench, traced=bool(args.trace))
    print_table(bench, metrics, reps)
    if args.out:
        detail = {
            "provenance": provenance(bench, args, reps),
            "metrics": metrics,
            "timings": {
                name: summary(v) for name, v in {**bench.samples, **bench.layers}.items() if v
            },
            "raw_timings": {name: summary(v) for name, v in bench.raw.items()},
            "digests": bench.observed_digests,
            "failures": bench.problems,
        }
        Path(args.out).write_text(json.dumps(detail, indent=1) + "\n")
    correct = bench.failed == 0 and all(m["value"] is not None for m in metrics.values())
    print(json.dumps({
        "correct": correct,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
