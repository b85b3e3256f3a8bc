"""The four benchmark workloads: seeded op sequences with their oracles.

A workload is a list of operations run in a fixed, seeded order (one pass);
the runner repeats whole passes.  Each operation has a timed ``call``, an
untimed ``read`` that turns the raw return into a :class:`Result`, and a
``verify`` that compares the result with an oracle from ``oracles`` or with a
known verdict, returning ``None`` when correct or the reason it is not.
"""

from __future__ import annotations

import hashlib
import io
import json
import os
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, replace
from importlib import import_module
from typing import Any, Callable

import numpy as np

import gen
import oracles
import qgcl.cli
import qgcl.equivalence as equivalence
import qgcl.semantics as semantics
from qgcl import (
    Abort,
    Block,
    DensityMatrix,
    GuardBasis,
    Measure,
    Measurement,
    Observable,
    ProbChoice,
    Program,
    QChoice,
    RegisterLayout,
    Seq,
    Skip,
    Unitary,
)

qwp = import_module("qgcl.wp")  # the package attribute ``qgcl.wp`` is the function

EQUIV_TOL = 1e-8
DISTINCT_MARGIN = 1e-4


@dataclass
class Result:
    code: int = 0
    text: str = ""
    matrix: np.ndarray | None = None
    weights: dict[str, float] | None = None
    verdict: str | None = None
    deviation: float | None = None


def perturbed(res: Result) -> Result:
    """The same result with one deliberate error an oracle must catch."""
    if res.matrix is not None:
        m = res.matrix.copy()
        m[0, 0] += 1e-3
        return replace(res, matrix=m)
    if res.weights:
        first = min(res.weights)
        return replace(res, weights={**res.weights, first: res.weights[first] + 1e-3})
    if res.verdict is not None:
        return replace(res, verdict="equiv" if res.verdict == "distinct" else "distinct")
    return replace(res, code=res.code + 1)


@dataclass
class Op:
    kind: str  # run | wp | check | branches | equiv
    family: str  # oracle family, one perturbed self-check each
    call: Callable[[], Any]
    verify: Callable[[Result], str | None]
    read: Callable[[Any], Result] = lambda r: r
    perturb: Callable[[Result], Result] = perturbed


@dataclass
class Workload:
    ops: list[Op]  # one pass
    warmup: Callable[[], Any]
    corpus: Any  # sha256 over every generated input and the op order

    @property
    def corpus_hash(self) -> str:
        return self.corpus.hexdigest()[:16]


# -- verification helpers ------------------------------------------------------

def close(expect: Callable[[], np.ndarray], what: str) -> Callable[[Result], str | None]:
    def verify(res: Result) -> str | None:
        if res.code != 0:
            return f"{what}: exit {res.code}: {res.text[-200:]}"
        dev = oracles.deviation(res.matrix, expect())
        return None if dev <= oracles.TOL else f"{what}: deviation {dev:.3e}"
    return verify


def weights_match(expect: dict[str, float], what: str) -> Callable[[Result], str | None]:
    def verify(res: Result) -> str | None:
        if res.code != 0:
            return f"{what}: exit {res.code}: {res.text[-200:]}"
        if set(res.weights or {}) != set(expect):
            return f"{what}: states {sorted(res.weights or {})} != {sorted(expect)}"
        worst = max(abs(res.weights[k] - v) for k, v in expect.items())
        return None if worst <= oracles.TOL else f"{what}: weight deviation {worst:.3e}"
    return verify


def exits_ok(res: Result) -> str | None:
    return None if res.code == 0 and res.text.strip() == "ok" else f"check: exit {res.code}"


def rejected(code: str) -> Callable[[Result], str | None]:
    def verify(res: Result) -> str | None:
        if res.code != 1 or f"{code}:" not in res.text:
            return f"malformed source: exit {res.code}, expected {code}: {res.text[-200:]}"
        return None
    return verify


# -- command-line operations -----------------------------------------------------

def cli(argv: list[str]) -> tuple[int, str, str]:
    """``qgcl.cli.main`` in this process, with its output captured."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = qgcl.cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    return int(code), out.getvalue(), err.getvalue()


def read_matrix(path: str | None = None) -> Callable[[tuple[int, str, str]], Result]:
    def read(raw) -> Result:
        code, out, err = raw
        if code != 0:
            return Result(code=code, text=out + err)
        if path is None:
            rec = json.loads(out)
        else:
            with open(path, encoding="utf-8") as fh:
                rec = json.load(fh)
        return Result(matrix=gen.from_record(rec))
    return read


def read_text(raw) -> Result:
    code, out, err = raw
    return Result(code=code, text=out + err)


def read_branches(raw) -> Result:
    code, out, err = raw
    weights = {}
    if code == 0:
        for line in out.splitlines():
            label, _, weight = line.rpartition("  weight=")
            weights[label] = float(weight)
    return Result(code=code, text=out + err, weights=weights)


class Files:
    """Writes generated inputs under one directory and hashes every byte."""

    def __init__(self, root: str, corpus):
        self.root = root
        self.corpus = corpus
        self.count = 0

    def write(self, text: str, suffix: str) -> str:
        self.count += 1
        path = os.path.join(self.root, f"f{self.count:04d}{suffix}")
        data = text.encode("utf-8")
        self.corpus.update(data)
        with open(path, "wb") as fh:
            fh.write(data)
        return path

    def state(self, m: np.ndarray, layout) -> str:
        return self.write(gen.record_text(m, layout), ".json")

    def out(self) -> str:
        self.count += 1
        return os.path.join(self.root, f"out{self.count:04d}.json")


def cli_matrix(kind: str, files: Files, src: str, state: str, expect, family: str,
               out: bool) -> Op:
    """``qgcl run`` (``state`` is the input file) or ``qgcl wp`` (``state`` is
    the observable file), checked against ``expect()``."""
    path = files.out() if out else None
    flag = "--input" if kind == "run" else "--observable"
    argv = [kind, src, flag, state] + (["--out", path] if out else [])
    return Op(kind, family, lambda: cli(argv), close(expect, family), read_matrix(path))


def cli_channel(files: Files, src: str, kraus, rho, m, layout, family: str, out: bool) -> list[Op]:
    """Forward op on state ``rho`` and wp op on observable ``m`` for a program
    whose channel has Kraus family ``kraus``."""
    return [
        cli_matrix("run", files, src, files.state(rho, layout), lambda: oracles.channel(kraus, rho),
                   family + "-run", out),
        cli_matrix("wp", files, src, files.state(m, layout), lambda: oracles.dual(kraus, m),
                   family + "-wp", out),
    ]


def cli_branches(src: str, expect: dict[str, float], family: str) -> Op:
    return Op("branches", family, lambda: cli(["branches", src]), weights_match(expect, family),
              read_branches)


def cli_check(src: str, family: str) -> Op:
    return Op("check", family, lambda: cli(["check", src]), exits_ok, read_text)


def path_weights(paths: dict, label: Callable[[tuple], str]) -> dict[str, float]:
    return {label(k): float(np.real(np.trace(oracles.dagger(op) @ op))) for k, op in paths.items()}


# -- walk ----------------------------------------------------------------------------

# Per pass: (cycle length n, forward ops, wp ops).  Dimension 2n runs from 128
# to 1024; 2048 is left out because one op there takes 6-7 s.
WALK_MIX = ((64, 34, 34), (128, 10, 10), (256, 6, 6), (512, 1, 1))


def walk_step(n: int) -> QChoice:
    return QChoice(
        Unitary((("c", 2),), gen.HADAMARD),
        GuardBasis.computational(2),
        (Unitary((("v", n),), gen.shift(n, 1)), Unitary((("v", n),), gen.shift(n, -1))),
    )


def shuffled(rng: np.random.Generator, labelled: list[tuple[str, Op]], corpus) -> list[Op]:
    """Seeded op order; the labels of the ordered plan join the corpus hash."""
    order = rng.permutation(len(labelled))
    corpus.update("\n".join(labelled[i][0] for i in order).encode())
    return [labelled[i][1] for i in order]


def walk(seed: int, workdir: str) -> Workload:
    rng = np.random.default_rng([seed, 1])
    labelled: list[tuple[str, Op]] = []
    corpus = hashlib.sha256()
    steps = {}
    for n, runs, wps in WALK_MIX:
        layout = RegisterLayout.of(("v", n), ("c", 2))
        step = steps[n] = walk_step(n)
        oracle = oracles.Walk(gen.walk_operator(n))
        chain = {"rho": gen.walker_state(rng, n), "obs": gen.walker_observable(rng, n)}
        corpus.update(chain["rho"].tobytes() + chain["obs"].tobytes())

        def run(step=step, layout=layout, chain=chain):
            chain["rho_in"] = chain["rho"]
            chain["rho"] = semantics.apply_program(step, DensityMatrix(chain["rho_in"], layout)).matrix
            return Result(matrix=chain["rho"])

        def wp(step=step, layout=layout, chain=chain):
            chain["obs_in"] = chain["obs"]
            chain["obs"] = qwp.wp_apply(step, Observable(chain["obs_in"], layout)).matrix
            return Result(matrix=chain["obs"])

        run_op = Op("run", "walk-run", run,
                    close(lambda o=oracle, c=chain: o.run(c["rho_in"]), f"walk run n={n}"))
        wp_op = Op("wp", "walk-wp", wp,
                   close(lambda o=oracle, c=chain: o.wp(c["obs_in"]), f"walk wp n={n}"))
        labelled += [(f"run {n}", run_op)] * runs + [(f"wp {n}", wp_op)] * wps
    first = WALK_MIX[0][0]
    warm = DensityMatrix(np.eye(2 * first) / (2 * first), RegisterLayout.of(("v", first), ("c", 2)))
    return Workload(shuffled(rng, labelled, corpus), lambda: semantics.apply_program(steps[first], warm), corpus)


# -- cli_files -----------------------------------------------------------------------

# Per pass at each total dimension d: (walk run, walk wp, dense-unitary run,
# measure run, branches, check).  Ops of one kind and size share their input
# files.  Dimensions 256 and up are left out: there one op takes 0.3 to 9 s,
# most of it JSON decode and encode, and too few passes fit in a run for a
# steady median on a shared machine.
CLI_MIX = {
    64: (15, 15, 15, 15, 15, 15),
    128: (3, 3, 3, 3, 3, 3),
}


def cli_files(seed: int, workdir: str) -> Workload:
    rng = np.random.default_rng([seed, 2])
    corpus = hashlib.sha256()
    files = Files(workdir, corpus)
    labelled: list[tuple[str, Op]] = []
    for d, counts in CLI_MIX.items():
        half = d // 2
        walk_layout = [("v", half), ("c", 2)]
        gates = files.write(gen.gates_text(gen.walk_gates(half)), ".json")
        walk_src = files.write(gen.walk_source(half, os.path.basename(gates)), ".qgcl")
        ops = cli_channel(files, walk_src, [gen.walk_operator(half)], gen.walker_state(rng, half),
                          gen.walker_observable(rng, half), walk_layout, "cli-walk", True)
        if any(counts[2:]):
            ops += dense_ops(files, rng, d)
        for op, count in zip(ops, counts):
            labelled += [(f"{op.family} {d}", op)] * count
    warm = cli_check(files.write("qvar q : 2;\nskip\n", ".qgcl"), "warmup")
    return Workload(shuffled(rng, labelled, corpus), warm.call, corpus)


def dense_ops(files: Files, rng, d: int) -> list[Op]:
    """Run, branches and check ops on a dense random unitary and a dense
    two-outcome measurement over (a, b), with gates in definition files."""
    half = d // 2
    u, (k0, k1), v = gen.unitary(rng, d), gen.measurement(rng, d), gen.unitary(rng, half)
    head = f"qvar a : {half};\nqvar b : 2;\n"
    u_gates = files.write(gen.gates_text({"U": u}), ".json")
    u_src = files.write(head + f'use "{os.path.basename(u_gates)}";\n\nU[a, b]\n', ".qgcl")
    m_gates = files.write(gen.gates_text({"K0": k0, "K1": k1, "V": v}), ".json")
    m_src = files.write(
        head + f'use "{os.path.basename(m_gates)}";\nmeasurement M = {{ 0: K0; 1: K1 }};\n\n'
        "measure x <- M[a, b] { 0: skip; 1: V[a] }\n", ".qgcl")
    m_kraus = [k0, np.kron(v, np.eye(2)) @ k1]
    rho = gen.density(rng, d)
    state = files.state(rho, [("a", half), ("b", 2)])
    return [
        cli_matrix("run", files, u_src, state, lambda: oracles.channel([u], rho), "cli-unitary-run", True),
        cli_matrix("run", files, m_src, state, lambda: oracles.channel(m_kraus, rho),
                   "cli-measure-run", True),
        cli_branches(m_src, path_weights({(0,): k0, (1,): k1}, lambda k: f"[x<-{k[0]}]"), "cli-branches"),
        cli_check(m_src, "cli-check"),
    ]


# -- protocols -------------------------------------------------------------------------

SKIP_ARMS = "{ 0: skip; 1: skip }"


def measure_chain_text(src: gen.Source, names, qv: str, mmts) -> str:
    return "; ".join(
        f"measure {x} <- {src.measurement(ops)}[{qv}] {SKIP_ARMS}" for x, ops in zip(names, mmts)
    )


def gmeas_text(src: gen.Source, a, b) -> str:
    return (f"guard c {{ |0> -> measure x <- {src.measurement(a)}[q] {SKIP_ARMS}; "
            f"|1> -> measure y <- {src.measurement(b)}[q] {SKIP_ARMS} }}")


class Protocols:
    """Small generated sources; each method writes one source and returns its ops."""

    def __init__(self, rng: np.random.Generator, files: Files):
        self.rng = rng
        self.files = files

    def source(self, src: gen.Source, body: str) -> str:
        return self.files.write(src.text(body), ".qgcl")

    def channel_ops(self, path, kraus, layout, family, extra=()) -> list[Op]:
        d = kraus[0].shape[0]
        rho, m = gen.density(self.rng, d), gen.observable(self.rng, d)
        return cli_channel(self.files, path, kraus, rho, m, layout, family, False) + list(extra)

    def bb84(self, d: int) -> list[Op]:
        src = gen.Source()
        src.qvar("q", 2)
        src.qvar("q1", d)
        p = float(self.rng.uniform(0.1, 0.9))
        coin = src.matrix(np.array([[np.sqrt(p), np.sqrt(1 - p)], [np.sqrt(1 - p), -np.sqrt(p)]]))
        a, b = gen.measurement(self.rng, d), gen.measurement(self.rng, d)
        body = (f"begin local q := |0>;\n  {coin}[q];\n"
                f"  guard q {{ |0> -> measure x <- {src.measurement(a)}[q1] {SKIP_ARMS}; "
                f"|1> -> measure y <- {src.measurement(b)}[q1] {SKIP_ARMS} }}\nend")
        kraus = [np.sqrt(p) * k for k in a] + [np.sqrt(1 - p) * k for k in b]
        return self.channel_ops(self.source(src, body), kraus, [("q1", d)], "bb84")

    def gmeas(self, d: int) -> list[Op]:
        src = gen.Source()
        src.qvar("q", d)
        src.qvar("c", 2)
        a, b = gen.measurement(self.rng, d), gen.measurement(self.rng, d)
        path = self.source(src, gmeas_text(src, a, b))
        ops = oracles.guarded_measurements(a, b)
        weights = path_weights(ops, lambda k: f"(+ [x<-{k[0]}] [y<-{k[1]}])")
        return self.channel_ops(path, list(ops.values()), [("q", d), ("c", 2)], "gmeas",
                                [cli_branches(path, weights, "gmeas-branches")])

    def pchoice(self, d: int) -> list[Op]:
        src = gen.Source()
        src.qvar("q", d)
        src.qvar("c", 2)
        a, b, u = gen.measurement(self.rng, d), gen.measurement(self.rng, d), gen.unitary(self.rng, 2 * d)
        w1 = float(self.rng.uniform(0.2, 0.6))
        w2 = float(self.rng.uniform(0.1, 1.0 - w1))
        body = f"pchoice {{ {gmeas_text(src, a, b)} @ {w1!r}; {src.matrix(u)}[q, c] @ {w2!r} }}"
        kraus = [np.sqrt(w1) * k for k in oracles.guarded_measurements(a, b).values()] + [np.sqrt(w2) * u]
        return self.channel_ops(self.source(src, body), kraus, [("q", d), ("c", 2)], "pchoice")

    def chain(self, d: int, k: int) -> list[Op]:
        src = gen.Source()
        src.qvar("q", d)
        mmts = [gen.measurement(self.rng, d) for _ in range(k)]
        names = [f"x{i}" for i in range(1, k + 1)]
        path = self.source(src, measure_chain_text(src, names, "q", mmts))
        ops = oracles.measurement_chain(mmts)
        weights = path_weights(ops, lambda ms: "*".join(f"[{x}<-{m}]" for x, m in zip(names, ms)))
        return self.channel_ops(path, list(ops.values()), [("q", d)], "chain",
                                [cli_branches(path, weights, "chain-branches")])

    def classical_loop(self, d: int, n: int) -> list[Op]:
        src = gen.Source()
        src.qvar("q", d)
        u = gen.unitary(self.rng, d)
        head = np.zeros((d, d))
        head[0, 0] = 1.0
        guard, body = src.measurement([head, np.eye(d) - head]), src.matrix(u)
        prog = "abort"
        for level in range(1, n + 1):
            prog = f"measure x{level} <- {guard}[q] {{ 0: skip; 1: {body}[q]; {prog} }}"
        return self.channel_ops(self.source(src, prog), oracles.classical_loop(u, n), [("q", d)],
                                "classical-loop")

    def quantum_body(self, src: gen.Source, u: np.ndarray, n: int) -> str:
        coin, body = src.matrix(gen.HADAMARD), src.matrix(u)
        prog = "abort"
        for level in range(1, n + 1):
            src.qvar(f"g{level}", 2)
            prog = f"qchoice {coin}[g{level}] {{ |0> -> skip; |1> -> {body}[q]; {prog} }}"
        return prog

    def quantum_loop(self, d: int, n: int) -> list[Op]:
        src = gen.Source()
        src.qvar("q", d)
        u = gen.unitary(self.rng, d)
        path = self.source(src, self.quantum_body(src, u, n))
        layout = [("q", d)] + [(f"g{k}", 2) for k in range(1, n + 1)]
        iso = oracles.quantum_loop(u, n)
        coins = np.zeros((2**n, 2**n))
        coins[0, 0] = 1.0
        rho, m = gen.density(self.rng, d), gen.observable(self.rng, d * 2**n)
        run = cli_matrix("run", self.files, path, self.files.state(np.kron(rho, coins), layout),
                         lambda: iso @ rho @ iso.conj().T, "quantum-loop-run", False)
        # Only the block on coins |0..0> has a closed form: V^dagger M V.
        wp = cli_matrix("wp", self.files, path, self.files.state(m, layout),
                        lambda: iso.conj().T @ m @ iso,
                        "quantum-loop-wp", False)
        start = np.kron(np.eye(d), coins[:, :1])
        wp.read = lambda raw: compress(read_matrix()(raw), start)
        return [run, wp]

    def localized_loop(self, d: int, n: int) -> list[Op]:
        src = gen.Source()
        src.qvar("q", d)
        u = gen.unitary(self.rng, d)
        body = self.quantum_body(src, u, n)
        coins = ", ".join(f"g{k}" for k in range(1, n + 1))
        path = self.source(src, f"begin local {coins} := |0>;\n{body}\nend")
        return self.channel_ops(path, oracles.localized_loop(u, n), [("q", d)], "localized-loop")

    def core(self, depth: int, shape: int) -> list[Op]:
        sampler = CoreSampler(self.rng, np.random.default_rng([CORE_SHAPE_SEED, shape]))
        path = self.source(sampler.src, sampler.program(depth))
        layout = [(v, 2) for v in ("q", "r", "g0", "g1", "g2") if v in sampler.used]
        d = 2 ** len(layout)
        rho, m = gen.density(self.rng, d), gen.observable(self.rng, d)
        run = cli_matrix("run", self.files, path, self.files.state(rho, layout), None, "core-run", False)
        wp = cli_matrix("wp", self.files, path, self.files.state(m, layout), None, "core-wp", False)
        seen: dict[str, np.ndarray] = {}

        def keep(raw) -> Result:
            res = read_matrix()(raw)
            seen["out"] = res.matrix
            return res

        def bounded(res: Result) -> str | None:
            if res.code != 0:
                return f"core run: exit {res.code}: {res.text[-200:]}"
            excess = np.trace(res.matrix).real - np.trace(rho).real
            return None if excess <= oracles.TOL else f"core run: trace grew by {excess:.3e}"

        def dual(res: Result) -> str | None:
            if res.code != 0:
                return f"core wp: exit {res.code}: {res.text[-200:]}"
            gap = abs(np.sum(res.matrix * rho.T) - np.sum(m * seen["out"].T))
            return None if gap <= oracles.TOL else f"core wp-forward duality gap {gap:.3e}"

        def overfull(res: Result) -> Result:
            grow = np.trace(rho).real - np.trace(res.matrix).real + 1e-3
            return replace(res, matrix=res.matrix + grow * np.eye(d) / d)

        run.read, run.verify, run.perturb, wp.verify = keep, bounded, overfull, dual
        return [run, wp, cli_check(path, "core-check")]

    MALFORMED = (
        ("undeclared-variable", "{U}[w]"),
        ("unitary-nonunitary", "{A}[q]"),
        ("measure-incomplete", "measure x <- {N}[q] { 0: skip; 1: skip }"),
        ("var-reuse", "measure x <- {M}[q] { 0: skip; 1: skip }; measure x <- {M}[q] { 0: skip; 1: skip }"),
        ("guard-var-overlap", "guard c { |0> -> {U}[c]; |1> -> {U}[q] }"),
        ("prob-weights", "pchoice { {U}[q] @ 0.8; {U}[q] @ 0.9 }"),
        ("guard-arms", "guard c { |0> -> {U}[q] }"),
        ("syntax", "{U}[q] {U}[q]"),
    )

    def malformed(self, index: int, command: str) -> list[Op]:
        code, template = self.MALFORMED[index]
        src = gen.Source()
        src.qvar("q", 2)
        src.qvar("c", 2)
        names = {
            "U": src.matrix(gen.unitary(self.rng, 2)),
            "A": src.matrix(np.diag([1.0, self.rng.uniform(0.2, 0.8)])),
            "M": src.measurement(gen.measurement(self.rng, 2)),
            "N": src.measurement([0.9 * k for k in gen.measurement(self.rng, 2)]),
        }
        body = template
        for key, name in names.items():
            body = body.replace("{" + key + "}", name)
        path = self.source(src, body)
        state = self.files.state(np.eye(4) / 4, [("q", 2), ("c", 2)])
        argv = {"check": ["check", path], "branches": ["branches", path],
                "run": ["run", path, "--input", state], "wp": ["wp", path, "--observable", state]}[command]
        return [Op(command, "malformed", lambda: cli(argv), rejected(code), read_text)]


def compress(res: Result, iso: np.ndarray) -> Result:
    if res.matrix is None:
        return res
    return replace(res, matrix=iso.conj().T @ res.matrix @ iso)


class CoreSampler:
    """Random well-formed core programs in source form.

    Data registers q, r carry the payload; g0..g2 are consumed once each as
    guard or coin registers, so guard variables stay fresh for their branches.
    Classical names are globally unique.  The tree shape comes from ``shape``
    and the matrices from ``rng``: with a fixed shape stream, every workload
    seed runs programs of the same structure and cost.
    """

    def __init__(self, rng: np.random.Generator, shape: np.random.Generator):
        self.rng = rng
        self.shape = shape
        self.src = gen.Source()
        for v in ("q", "r", "g0", "g1", "g2"):
            self.src.qvar(v, 2)
        self.fresh = ["g0", "g1", "g2"]
        self.used = {"q", "r"}
        self.names = 0

    def data(self) -> list[str]:
        return [["q"], ["r"], ["q", "r"]][int(self.shape.integers(3))]

    def unitary(self) -> str:
        qs = self.data()
        return f"{self.src.matrix(gen.unitary(self.rng, 2 ** len(qs)))}[{', '.join(qs)}]"

    def program(self, depth: int) -> str:
        return f"{self.src.matrix(gen.unitary(self.rng, 4))}[q, r]; {self.node(depth)}"

    def node(self, depth: int) -> str:
        roll = self.shape.uniform()
        if depth <= 0:
            return "skip" if roll < 0.15 else "abort" if roll < 0.25 else self.unitary()
        if roll < 0.25:
            qs = self.data()
            self.names += 1
            mmt = self.src.measurement(gen.measurement(self.rng, 2 ** len(qs)))
            return (f"measure x{self.names} <- {mmt}[{', '.join(qs)}] "
                    f"{{ 0: {self.node(depth - 1)}; 1: {self.node(depth - 1)} }}")
        if roll < 0.45 and self.fresh:
            g = self.fresh.pop()
            self.used.add(g)
            basis = "" if self.shape.uniform() < 0.5 else f" basis {self.src.matrix(gen.unitary(self.rng, 2))}"
            head = (f"qchoice {self.src.matrix(gen.unitary(self.rng, 2))}[{g}]"
                    if self.shape.uniform() < 0.5 else f"guard {g}")
            return f"{head}{basis} {{ |0> -> {self.node(depth - 1)}; |1> -> {self.node(depth - 1)} }}"
        if roll < 0.75:
            return f"{self.node(depth - 1)}; {self.node(depth - 1)}"
        return self.unitary()


# Per pass, by family: the dimensions (and chain lengths or unroll depths) of
# its sources.  Total dimensions stay within 2..32.
PROTOCOL_MIX = (
    ("bb84", ((2,), (4,), (8,), (16,))),
    ("gmeas", ((2,), (4,), (8,), (16,))),
    ("pchoice", ((2,), (4,), (8,))),
    ("chain", ((2, 2), (2, 3), (2, 4), (2, 6), (4, 3), (4, 5), (8, 2))),
    ("classical_loop", ((2, 3), (4, 4), (4, 6), (8, 6), (16, 5))),
    ("quantum_loop", ((2, 2), (2, 4), (4, 3))),
    ("localized_loop", ((2, 2), (2, 4), (4, 3), (8, 2))),
    ("core", ((3, 0), (3, 1), (3, 2), (3, 3), (3, 8), (4, 4), (4, 5), (4, 6), (4, 7))),
)
CORE_SHAPE_SEED = 1209
MALFORMED_PER_PASS = 4


def protocols(seed: int, workdir: str) -> Workload:
    rng = np.random.default_rng([seed, 3])
    corpus = hashlib.sha256()
    sources = Protocols(rng, Files(workdir, corpus))
    groups: list[tuple[str, list[Op]]] = []
    for family, params in PROTOCOL_MIX:
        for p in params:
            groups.append((f"{family} {p}", getattr(sources, family)(*p)))
    commands = ("check", "run", "wp", "branches")
    for i, index in enumerate(rng.choice(len(Protocols.MALFORMED), MALFORMED_PER_PASS, replace=False)):
        groups.append((f"malformed {index}", sources.malformed(int(index), commands[i % 4])))
    # A source's ops stay together and in order: the duality check of a
    # random core program reads the forward output of the op before it.
    order = rng.permutation(len(groups))
    corpus.update("\n".join(groups[i][0] for i in order).encode())
    warm = cli_check(sources.files.write("qvar q : 2;\nskip\n", ".qgcl"), "warmup")
    return Workload([op for i in order for op in groups[i][1]], warm.call, corpus)


# -- equiv -------------------------------------------------------------------------------

def qv(name: str, d: int) -> tuple[tuple[str, int], ...]:
    return ((name, d),)


def guard_unitary(basis: np.ndarray, unitaries) -> np.ndarray:
    """``sum_i |b_i><b_i| (x) U_i`` on layout (coin, data)."""
    return sum(np.kron(np.outer(basis[:, i], basis[:, i].conj()), u) for i, u in enumerate(unitaries))


class EquivPairs:
    """Seeded program pairs with known verdicts.

    Each maker returns ``(build, lhs, layout, kraus)``: ``build`` constructs
    the pair through the library inside the timed op, ``lhs`` is the left
    program, ``layout`` its factor order and ``kraus`` its channel by closed
    form, used by the run and wp ops.
    A perturbed pair changes one ingredient of the right-hand side by a large
    amount, so its verdict is DISTINCT with a deviation far above tolerance.
    """

    def __init__(self, rng: np.random.Generator):
        self.rng = rng

    def branches(self, k: int, dq: int):
        us = [gen.unitary(self.rng, dq) for _ in range(k)]
        return us, tuple(Unitary(qv("q", dq), u) for u in us)

    def bent(self, us, dq: int):
        return tuple(Unitary(qv("q", dq), u) for u in [us[0] @ gen.rotation(dq, 0.5), *us[1:]])

    def reloc_unitary(self, dc: int, dq: int, distinct: bool):
        coin_u = gen.unitary(self.rng, dc)
        basis = gen.unitary(self.rng, dc)
        us, branches = self.branches(dc, dq)
        coin, gb = Unitary(qv("c", dc), coin_u), GuardBasis(basis)
        rhs_branches = self.bent(us, dq) if distinct else branches
        lhs = QChoice(coin, gb, branches)
        kraus = [guard_unitary(basis, us) @ np.kron(coin_u, np.eye(dq))]
        return (lambda: (lhs, semantics.coin_relocation_lhs_rhs(coin, gb, rhs_branches)[1]), lhs,
                RegisterLayout.of(("c", dc), ("q", dq)), kraus)

    def reloc_measuring(self, dc: int, dq: int, distinct: bool):
        ks = gen.measurement(self.rng, dc)
        vs = [gen.unitary(self.rng, dc) for _ in ks]
        coin = Measure("w", qv("c", dc), Measurement(tuple(enumerate(ks))),
                       tuple((m, Unitary(qv("c", dc), v)) for m, v in enumerate(vs)))
        us, branches = self.branches(dc, dq)
        gb = GuardBasis.computational(dc)
        rhs_branches = self.bent(us, dq) if distinct else branches
        lhs = QChoice(coin, gb, branches)
        g = guard_unitary(np.eye(dc), us)
        kraus = [g @ np.kron(v @ k, np.eye(dq)) for k, v in zip(ks, vs)]
        return (lambda: (lhs, semantics.coin_relocation_lhs_rhs(coin, gb, rhs_branches)[1]), lhs,
                RegisterLayout.of(("c", dc), ("q", dq)), kraus)

    def localized_choice(self, dc: int, dq: int, distinct: bool):
        coin_u, rho_c = gen.unitary(self.rng, dc), gen.density(self.rng, dc)
        weights = np.real(np.diag(coin_u @ rho_c @ coin_u.conj().T)).copy()
        us, branches = self.branches(dc, dq)
        lhs = Block(qv("c", dc), rho_c,
                    QChoice(Unitary(qv("c", dc), coin_u), GuardBasis.computational(dc), branches))
        kraus = [np.sqrt(w) * u for w, u in zip(weights, us)]
        rhs_weights = weights.copy()
        if distinct:
            big = int(np.argmax(weights))
            rhs_weights[big] -= 0.1
            rhs_weights[(big + 1) % dc] += 0.1
        rhs = ProbChoice(tuple(float(w) for w in rhs_weights), branches)
        return lambda: (lhs, rhs), lhs, RegisterLayout.of(("q", dq)), kraus

    def localized_loop(self, dq: int, n: int, distinct: bool):
        u = gen.unitary(self.rng, dq)
        v = u @ gen.rotation(dq, 0.5) if distinct else u
        weights = tuple(2.0 ** -(k + 1) for k in range(n))
        rhs = ProbChoice(weights, tuple(Unitary(qv("q", dq), np.linalg.matrix_power(v, k))
                                        for k in range(n)))
        lhs = semantics.unroll_loop(u, gen.HADAMARD, n, "localized")
        return (lambda: (semantics.unroll_loop(u, gen.HADAMARD, n, "localized"), rhs), lhs,
                RegisterLayout.of(("q", dq)), oracles.localized_loop(u, n))

    def classical_loop(self, dq: int, n: int, distinct: bool):
        u = gen.unitary(self.rng, dq)
        first = gen.unitary(self.rng, dq)
        head = np.zeros((dq, dq), dtype=complex)
        head[0, 0] = 1.0
        guard = Measurement(((0, head), (1, np.eye(dq) - head)))
        # The body U split as (U F^dagger) after F: the same channel, another
        # program.  A perturbed pair unrolls one level deeper.
        rhs: Program = Abort()
        for level in range(1, n + 1 + int(distinct)):
            body = Seq(Unitary(qv("q", dq), first), Seq(Unitary(qv("q", dq), u @ first.conj().T), rhs))
            rhs = Measure(f"c{level}", qv("q", dq), guard, ((0, Skip()), (1, body)))
        lhs = semantics.unroll_loop(u, gen.HADAMARD, n, "classical")
        return (lambda: (semantics.unroll_loop(u, gen.HADAMARD, n, "classical"), rhs), lhs,
                RegisterLayout.of(("q", dq)), oracles.classical_loop(u, n))


# Per pass: (maker, its two size arguments, equivalent pairs, perturbed
# pairs, forward and wp ops on each left program).  Total dimensions run from
# 4 to 32.  Dimension 64 is left out: one op there takes over a second with a
# 940 MB peak and alone made the workload's figures unsteady; 128 would need
# about 15 GB for its d^2 x d^2 Choi matrices.
EQUIV_MIX = (
    ("reloc_unitary", 2, 2, 4, 4, 2),
    ("reloc_measuring", 2, 2, 2, 2, 2),
    ("localized_loop", 4, 3, 2, 2, 2),
    ("classical_loop", 4, 4, 2, 2, 2),
    ("reloc_unitary", 2, 4, 2, 2, 2),
    ("reloc_measuring", 2, 4, 2, 2, 2),
    ("localized_choice", 2, 4, 2, 2, 2),
    ("reloc_unitary", 4, 4, 2, 2, 2),
    ("reloc_measuring", 2, 8, 2, 2, 2),
    ("localized_choice", 2, 16, 2, 2, 2),
    ("localized_loop", 16, 2, 2, 2, 2),
    ("classical_loop", 16, 4, 2, 2, 2),
    ("reloc_unitary", 2, 8, 2, 2, 2),
    ("reloc_unitary", 2, 16, 2, 2, 2),
    ("reloc_measuring", 2, 16, 2, 2, 2),
    ("classical_loop", 32, 3, 2, 2, 2),
    ("localized_loop", 32, 2, 2, 2, 2),
    ("reloc_unitary", 4, 8, 2, 2, 2),
)


def equiv(seed: int, workdir: str) -> Workload:
    rng = np.random.default_rng([seed, 4])
    corpus = hashlib.sha256()
    pairs = EquivPairs(rng)
    labelled: list[tuple[str, Op]] = []
    for maker, a, b, same, different, channel_ops in EQUIV_MIX:
        for distinct in [False] * same + [True] * different:
            build, lhs, layout, kraus = getattr(pairs, maker)(a, b, distinct)
            expect = "distinct" if distinct else "equiv"

            def call(build=build):
                verdict, dev = equivalence.program_equiv_report(*build(), EQUIV_TOL)
                return Result(verdict=verdict, deviation=dev)

            def verify(res: Result, expect=expect, what=f"{maker} {a}x{b}") -> str | None:
                if res.verdict != expect:
                    return f"{what}: verdict {res.verdict}, expected {expect} (deviation {res.deviation})"
                if expect == "distinct" and res.deviation < DISTINCT_MARGIN:
                    return f"{what}: distinct pair deviates by only {res.deviation:.3e}"
                return None

            labelled.append((f"equiv {maker} {a} {b} {expect}", Op("equiv", f"equiv-{expect}", call, verify)))
            corpus.update(np.concatenate([k.ravel() for k in kraus]).tobytes())
        for _ in range(channel_ops):
            labelled += equiv_channel_ops(rng, lhs, layout, kraus, f"{maker} {a} {b}")
    pairs_warm = EquivPairs(np.random.default_rng([seed, 5])).reloc_unitary(2, 2, False)[0]
    return Workload(shuffled(rng, labelled, corpus),
                    lambda: equivalence.program_equiv_report(*pairs_warm(), EQUIV_TOL), corpus)


def equiv_channel_ops(rng, lhs: Program, layout: RegisterLayout, kraus, label: str
                      ) -> list[tuple[str, Op]]:
    """Forward and wp evaluation of a pair's left program, by closed form."""
    d = kraus[0].shape[0]
    rho, m = gen.density(rng, d), gen.observable(rng, d)

    def run():
        return Result(matrix=semantics.apply_program(lhs, DensityMatrix(rho, layout)).matrix)

    def wp():
        return Result(matrix=qwp.wp_apply(lhs, Observable(m, layout)).matrix)

    return [
        (f"run {label}", Op("run", "equiv-run", run, close(lambda: oracles.channel(kraus, rho), label))),
        (f"wp {label}", Op("wp", "equiv-wp", wp, close(lambda: oracles.dual(kraus, m), label))),
    ]


WORKLOADS = {"walk": walk, "cli_files": cli_files, "protocols": protocols, "equiv": equiv}
