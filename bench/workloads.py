"""The benchmark's four workloads: inputs, operations and answer checks.

Each workload is one process driven as a closed loop with a single client:
the next operation starts when the previous one has returned and been
checked.  An operation always rebuilds its carrier from stored generators
and the build is timed, because the homology, cohomology and boundary
caches live on the carrier.  Operations are grouped into rounds that visit
every input once; round r uses the (r mod V)-th seeded variant.

Every operation checks its answers against values known from how the input
was built.  A wrong answer, an exception or a nonzero exit code is a
failure.
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import random
import subprocess
import sys
import time
from contextlib import redirect_stdout
from dataclasses import dataclass, field

import families as F
from spans import NullTracer
from conjtop.cli import main as cli_main
from conjtop.complexes import orbit_chain_boundaries
from conjtop.coverings import (
    branched_double_cover,
    curve_complex_semiorientation,
    dividing_test,
    double_cover_unbranched,
    orientation_cover,
)
from conjtop.gf2 import Gf2Matrix, gf2_invert, gf2_kernel_basis, gf2_rank, gf2_solve
from conjtop.homology import betti_numbers, cohomology, duality_data, homology
from conjtop.intmat import IntMatrix, invariant_factors, smith_normal_form
from conjtop.involutions import (
    characteristic_class,
    classify_type,
    fixed_subcomplex,
    harnack_audit,
    involution_form,
    is_even,
    smith_kernel_bound,
    verify_fixed_class_is_characteristic,
)
from conjtop.lattices import invariant_sublattices, torsion_audit, transfer_audit
from conjtop.modelfile import ModelFile, format_model, parse_model
from conjtop.models import coned_grid_torus, model_library, rp2_6vertex, torus7
from conjtop.qforms import QForm2, QForm4, arf, brown, qform_from_loop_table

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
CLI_EXPECTED = os.path.join(BENCH_DIR, "cli_expected.json")
WORK_DIR = ".bench_work"
MODEL_FILE = f"{WORK_DIR}/cli_models.txt"
NULL = NullTracer()


class Mismatch(Exception):
    """An answer differs from the one its input was built to have."""


def check(condition, what):
    if not condition:
        raise Mismatch(what)


@dataclass
class Op:
    kind: str
    run: object  # callable(tracer) -> carrier for the gf2 probes, or None
    label: str = ""


@dataclass
class Workload:
    name: str
    rounds: list  # rounds[v]: the ops of seeded variant v
    context: dict = field(default_factory=dict)
    # steps run once after set-up, each timed on its own into setup_s
    warmup: list = field(default_factory=list)
    probe: object = None  # callable(result, tracer) run after each traced op

    def round(self, r):
        return self.rounds[r % len(self.rounds)]


# ---------------------------------------------------------------------------
# homology-scaling
# ---------------------------------------------------------------------------


def simplex_count(K):
    return sum(K.n_simplices(k) for k in range(K.dimension + 1))


def _build(member, tr):
    with tr.span("complexes.build"):
        K = member.build()
    tr.count("complexes.simplices", simplex_count(K))
    return K


def homology_op(member, which):
    """Build, every boundary matrix, then ``which`` (homology or cohomology)
    in every degree.  The two are separate operations so that no operation
    runs much past half a second: the reference kernel passes around an
    operation track the host's speed only over spans that short."""
    compute = homology if which == "homology" else cohomology

    def run(tr):
        K = _build(member, tr)
        n = K.dimension
        for k in range(n + 2):
            with tr.span("complexes.boundary"):
                K.boundary_matrix(k)
        betti = []
        for k in range(n + 1):
            with tr.span("homology." + which):
                betti.append(compute(K, k).betti)
        if which == "homology":
            tr.count("homology.betti_total", sum(betti))
        want = member.expect["betti"]
        check(tuple(betti) == want, f"{member.name}: {which} Betti {betti}, expected {want}")
        return K

    return Op(which, run, member.name)


def gf2_probe(K, tr):
    """Kernel probes on the boundary matrices an operation just used."""
    if K is None:
        return
    for k in range(1, K.dimension + 1):
        M = K.boundary_matrix(k)
        with tr.span("gf2.rank"):
            r = gf2_rank(M)
        with tr.span("gf2.kernel"):
            gf2_kernel_basis(M)
        with tr.span("gf2.transpose"):
            M.transpose()
        tr.count("gf2.cols", M.ncols)
        tr.count("gf2.nnz", sum(row.bit_count() for row in M.rows))
        tr.count("gf2.rank", r)
        tr.count("gf2.zero_cols", M.ncols - r)


def setup_homology_scaling(seed, root, small, tr):
    rng = random.Random(seed)
    sides, times, variants = ((4,), (1,), 1) if small else ((9, 10, 11), (2,), 6)
    members = [make(n) for n in sides for make in (F.coned_torus, F.coned_klein)]
    for t in times:
        for name, K, betti in (("torus7", torus7(), (1, 2, 1)), ("rp2", rp2_6vertex(), (1, 1, 1))):
            with tr.span("complexes.subdivide"):
                members.append(F.subdivided(name, K, t, betti))
    rounds, sizes = [], {}
    for _ in range(variants):
        ops = []
        for m in members:
            v = F.relabel(m, rng)
            sizes[v.name] = simplex_count(F.validate(v))
            ops += [homology_op(v, "homology"), homology_op(v, "cohomology")]
        rounds.append(ops)
    return Workload("homology-scaling", rounds, {"simplices": sizes}, probe=gf2_probe)


def scaling_table(tr):
    """betti_numbers on coned tori of side 8, 16, 24: the cubic growth."""
    table = {}
    for n in (8, 16, 24):
        K, _, _ = coned_grid_torus(n)
        t0 = time.perf_counter()
        with tr.span(f"scale.torus{n}"):
            betti = betti_numbers(K)
        check(betti == (1, 2, 1), f"coned torus {n}: Betti {betti}")
        table[n] = {"simplices": simplex_count(K), "seconds": time.perf_counter() - t0}
    return table


# ---------------------------------------------------------------------------
# real-structures
# ---------------------------------------------------------------------------


def swap_op(member):
    want = member.expect

    def run(tr):
        K = _build(member, tr)
        tau = member.involution_on(K)
        with tr.span("complexes.orbit"):
            boundaries, _ = orbit_chain_boundaries(K, tau)
        tr.count("complexes.orbit_calls", 1)
        ranks = [boundaries[0].nrows] + [b.ncols for b in boundaries]
        chi = sum((-1) ** k * r for k, r in enumerate(ranks))
        check(chi == 3, f"{member.name}: orbit complex has chi {chi}, CP^2 has 3")
        with tr.span("homology.duality"):
            dd = duality_data(K, 2)
        check(dd.hom.betti == want["form_dim"], f"{member.name}: H_2 rank {dd.hom.betti}")
        with tr.span("involutions.classify"):
            verdict = classify_type(K, tau)
        with tr.span("involutions.char"):
            lemma = verify_fixed_class_is_characteristic(K, tau)
        check(lemma["holds"], f"{member.name}: fixed class is not characteristic")
        check(verdict.kind == "II" and verdict.witness == lemma["fixed_class"] != 0,
              f"{member.name}: verdict {verdict.kind} with witness {verdict.witness}")
        with tr.span("involutions.harnack"):
            h = harnack_audit(K, tau)
        got = (h.fixed_total_betti, h.space_total_betti, h.is_m)
        check(got == want["harnack"], f"{member.name}: Harnack {got}")
        with tr.span("involutions.smith"):
            smith = smith_kernel_bound(K, tau)
        check(smith.h1_trivial and smith.kernel_dimension == want["kernel"]
              and smith.quotient_table == want["smith_table"],
              f"{member.name}: Smith report {smith}")
        with tr.span("involutions.form"):
            B = involution_form(K, tau)
        check(B.dimension == want["form_dim"] and not is_even(B)
              and characteristic_class(B) == lemma["fixed_class"],
              f"{member.name}: involution form {B}")
        return K

    return Op("swap", run, member.name)


def m_double_op(member):
    want = member.expect
    ovals = want["ovals"]

    def run(tr):
        K = _build(member, tr)
        tau = member.involution_on(K)
        with tr.span("involutions.fixed"):
            fixed = fixed_subcomplex(K, tau)
        check(len(fixed.components) == ovals
              and all(c.dimension == 1 for c in fixed.components),
              f"{member.name}: fixed set {[c.dimension for c in fixed.components]}")
        with tr.span("coverings.dividing"):
            verdict = dividing_test(K, tau)
        check(verdict.dividing, f"{member.name}: an M-curve must divide")
        with tr.span("coverings.semiorient"):
            semi = curve_complex_semiorientation(K, tau)
        check(len(semi.carrier.components()) == ovals,
              f"{member.name}: semi-orientation on {len(semi.carrier.components())} ovals")
        with tr.span("involutions.harnack"):
            h = harnack_audit(K, tau)
        check(h.is_m and h.fixed_total_betti == 2 * ovals == h.space_total_betti,
              f"{member.name}: Harnack {h}")
        with tr.span("homology.relative"):
            rel = homology(K, 1, rel=fixed.subcomplex)
        check(rel.betti == want["relative_h1"],
              f"{member.name}: relative H_1 rank {rel.betti}, expected {want['relative_h1']}")
        return K

    return Op("m_double", run, member.name)


def _check_cover(name, cover, base, chi_branch):
    total = cover.total
    chi_total = total.euler_characteristic()
    chi_law = 2 * base.euler_characteristic() - chi_branch
    check(chi_total == chi_law, f"{name}: cover chi {chi_total}, the law gives {chi_law}")
    check(len(total.components()) == 1, f"{name}: cover is not connected")


def orientation_cover_op(member):
    def run(tr):
        K = _build(member, tr)
        with tr.span("coverings.orient_cover"):
            cover, _ = orientation_cover(K, member.marks["w1dual"])
        tr.count("coverings.cover_simplices", simplex_count(cover.total))
        _check_cover(member.name, cover, K, 0)
        return K

    return Op("orientation_cover", run, member.name)


def branched_cover_op(member):
    def run(tr):
        K = _build(member, tr)
        with tr.span("coverings.cover"):
            cover = branched_double_cover(K, member.marks["arcs"])
        tr.count("coverings.cover_simplices", simplex_count(cover.total))
        chi_branch = cover.branch.euler_characteristic()
        check(chi_branch == member.expect["chi_branch"], f"{member.name}: branch chi {chi_branch}")
        _check_cover(member.name, cover, K, chi_branch)
        return K

    return Op("branched_cover", run, member.name)


def unbranched_cover_op(member, cocycle):
    def run(tr):
        K = _build(member, tr)
        with tr.span("coverings.cover"):
            cover = double_cover_unbranched(K, cocycle)
        tr.count("coverings.cover_simplices", simplex_count(cover.total))
        _check_cover(member.name, cover, K, 0)
        return K

    return Op("unbranched_cover", run, member.name)


def seeded_class(K, rng):
    """A nonzero H^1 class: a seeded sum of canonical cohomology cocycles."""
    cycles = cohomology(K, 1).cycles
    pick = rng.randrange(1, 1 << len(cycles))
    w = 0
    for i, c in enumerate(cycles):
        if (pick >> i) & 1:
            w ^= c
    return w


def setup_real_structures(seed, root, small, tr):
    rng = random.Random(seed)
    if small:
        swaps, genera, kleins, octa_times, cover_sides, variants = (
            F.swap_members()[:1], [(2, 2)], (4,), 1, (4,), 1)
    else:
        swaps = F.swap_members()
        genera = [(g, 2 if g <= 3 else 3) for g in range(2, 9)]
        kleins, octa_times, cover_sides, variants = (6, 8), 2, (8,), 3
    octa = F.octahedron_with_arcs(octa_times)
    rounds, sizes = [], {}
    for _ in range(variants):
        ops = []
        members = [(swap_op, F.relabel(m, rng)) for m in swaps]
        members += [(m_double_op, F.relabel(F.m_double(g, slots, rng), rng))
                    for g, slots in genera]
        members += [(orientation_cover_op, F.relabel(F.coned_klein(n), rng)) for n in kleins]
        members.append((branched_cover_op, F.relabel(octa, rng)))
        for make, m in members:
            sizes[m.name] = simplex_count(F.validate(m))
            ops.append(make(m))
        for n in cover_sides:
            for base in (F.coned_torus(n), F.coned_klein(n)):
                m = F.relabel(base, rng)
                K = F.validate(m)
                sizes[m.name] = simplex_count(K)
                ops.append(unbranched_cover_op(m, seeded_class(K, rng)))
        rounds.append(ops)
    return Workload("real-structures", rounds, {"simplices": sizes}, probe=gf2_probe)


# ---------------------------------------------------------------------------
# invariants
# ---------------------------------------------------------------------------


def brown_op(n, gram, values, expected):
    def run(tr):
        q = QForm4(gram, values)
        with tr.span("qforms.brown"):
            got = brown(q)
        tr.count("qforms.gauss_terms", 1 << n)
        check(got == expected, f"Brown of a dimension-{n} form: {got}, expected {expected}")
        diag = gram.diagonal_vector()
        with tr.span("gf2.dense"):
            solution = gf2_solve(gram, diag)
        check(solution is not None and gram.mul_vec(solution[0]) == diag,
              f"dimension-{n} form has no characteristic vector")

    return Op("brown", run, f"z4_{n}")


def arf_op(n, gram, values, expected):
    def run(tr):
        q = QForm2(gram, values)
        with tr.span("qforms.arf"):
            got = arf(q)
        check(got == expected, f"Arf of a dimension-{n} form: {got}, expected {expected}")
        with tr.span("gf2.dense"):
            inverse = gf2_invert(gram)
        check(gram * inverse == Gf2Matrix.identity(n), f"dimension-{n} Gram inverse is wrong")

    return Op("arf", run, f"z2_{n}")


def loops_op(table, values, expected_invariant):
    def run(tr):
        with tr.span("qforms.loops"):
            q = qform_from_loop_table(table)
        check(q.values == values, f"{table.kind} table gives values {q.values}")
        if table.kind == "spin":
            with tr.span("qforms.arf"):
                got = arf(q)
        else:
            with tr.span("qforms.brown"):
                got = brown(q)
            tr.count("qforms.gauss_terms", 1 << q.dimension)
        check(got == expected_invariant, f"{table.kind} table invariant {got}")

    return Op("loops", run, f"{table.kind}_{table.gram.nrows}")


def snf_op(label, rows, expected, full):
    def run(tr):
        M = IntMatrix(rows)
        with tr.span("intmat.snf"):
            if full:
                D, _, _ = smith_normal_form(M)
                got = tuple(d for d in D.diagonal_entries() if d)
            else:
                got = invariant_factors(M)
        tr.count("intmat.snf_cells", M.nrows * M.ncols)
        check(got == expected, f"{label}: invariant factors differ from D")

    return Op("snf", run, label)


def lattice_op(k, lattice, presentation_factors):
    def run(tr):
        with tr.span("lattices.audit"):
            report = transfer_audit(lattice)
            torsion = torsion_audit(lattice)
            plus, minus = invariant_sublattices(lattice)
        check(report["invariant_rank"] == k and len(plus) == k and len(minus) == k,
              f"rank-{2 * k} swap lattice: invariant ranks {len(plus)}, {len(minus)}")
        check(torsion["checked"] and torsion["invariant_factors"] == presentation_factors,
              f"rank-{2 * k} swap lattice: torsion audit {torsion}")

    return Op("lattice", run, f"lattice_{2 * k}")


def setup_invariants(seed, root, small, tr):
    rng = random.Random(seed)
    if small:
        brown_dims, arf_dims, spin, pin, snf_sizes, tori, lattice_ks, variants = (
            (8,), (8,), 8, 6, ((12, 9),), (3,), (2,), 1)
    else:
        # 23 ops a round, 12 of them at most about as costly as the signed
        # boundaries of the side-3 tori: the median falls among the samples
        # of those two ops instead of between two cost clusters
        brown_dims, arf_dims, spin, pin = (12, 13, 14, 15, 16), (24, 40, 56), 40, 12
        snf_sizes = ((40, 30), (80, 60), (120, 90), (160, 120), (160, 120))
        tori, lattice_ks, variants = (3, 4), (2, 4, 6, 8), 3
    rounds = []
    for _ in range(variants):
        ops = []
        for n in brown_dims:
            ops.append(brown_op(n, *F.z4_form(n, rng)))
        for n in arf_dims:
            ops.append(arf_op(n, *F.z2_form(n, rng)))
        gram, values, a = F.z2_form(spin, rng)
        ops.append(loops_op(F.loop_table("spin", gram, values, rng, 8), values, a))
        gram, values, b = F.z4_form(pin, rng)
        ops.append(loops_op(F.loop_table("pin", gram, values, rng, 8), values, b))
        for m, n in snf_sizes:
            rows, factors = F.udv_matrix(m, n, n - 3, rng)
            ops.append(snf_op(f"udv_{m}x{n}", rows, factors, True))
        for n in tori:
            for base, torsion in ((F.coned_torus(n), ()), (F.coned_klein(n), (2,))):
                K = F.relabel(base, rng).build()
                # H_2 is Z for the torus (rank F - 1) and 0 for the Klein
                # bottle, whose H_1 carries the one Z/2
                ones = K.n_simplices(2) - 1
                ops.append(snf_op(f"d2_{base.name}", F.signed_boundary_2(K),
                                  (1,) * ones + torsion, False))
        for k in lattice_ks:
            ops.append(lattice_op(k, *F.swap_lattice(k, rng, 6)))
        rounds.append(ops)
    return Workload("invariants", rounds)


# ---------------------------------------------------------------------------
# cli-cold
# ---------------------------------------------------------------------------

README_COMMANDS = (
    ("classify", "quadric", "--h", "(1,1)"),
    ("divide", "torus_reflection"),
    ("orient", "torus_reflection"),
    ("conj-form", "quadric"),
    ("fixed-set", "quadric"),
    ("homology", "klein_bottle"),
    ("cover", "sphere_octa_sub", "--cut", "arcs_both"),
    ("cover", "rp2_6vertex", "--cocycle", "w1_cocycle"),
    ("orient-cover", "klein_bottle", "--curve", "w1dual"),
    ("compare", "torus_grid", "--y1", "col0,col2", "--y2", "col1,col3"),
    ("congruence", "--chi", "8", "--type", "I_abs", "--h1-trivial"),
    ("lattice-audit", "quadric_lattice"),
    ("qform", "rp2_loops"),
    ("homology", "torus7"),
)
MODEL_COMMANDS = (
    ("homology", "torus6", "--model", MODEL_FILE),
    ("homology", "klein6", "--model", MODEL_FILE),
    ("classify", "mdouble_g2", "--model", MODEL_FILE),
    ("classify", "tetra2", "--model", MODEL_FILE),
)


def cli_model() -> ModelFile:
    """The --model file's contents: fixed family members, so report bytes
    do not depend on the workload seed."""
    rng = random.Random(0)
    model = ModelFile()
    for m in (F.coned_torus(6), F.coned_klein(6), F.m_double(2, 2, rng),
              F.swap_members()[0]):
        K = F.validate(m)
        model.complexes[m.name] = K
        if m.involution is not None:
            model.maps[m.name] = (m.name, m.name, m.involution_on(K))
    return model


def cli_env(root):
    env = dict(os.environ)
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_cli_child(argv, root, env):
    return subprocess.run(
        [sys.executable, "-m", "conjtop.cli", *argv],
        cwd=root, env=env, capture_output=True, timeout=120, check=False,
    )


def cli_op(argv, root, env, expected):
    key = " ".join(argv)

    def run(tr):
        with tr.span("cli.cold"):
            proc = run_cli_child(argv, root, env)
        want = expected[key]
        check(proc.returncode == want["exit"],
              f"conjtop {key}: exit {proc.returncode}, expected {want['exit']}")
        digest = hashlib.sha256(proc.stdout).hexdigest()
        check(digest == want["sha256"], f"conjtop {key}: report bytes changed")
        return argv

    return Op("cli", run, key)


def cli_probe(root, env, model_text):
    """Per-op floors and in-process parts of a cold command."""

    def probe(argv, tr):
        with tr.span("cli.interp"):
            subprocess.run([sys.executable, "-c", "pass"], cwd=root, env=env, check=True)
        with tr.span("cli.import"):
            subprocess.run([sys.executable, "-c", "import conjtop.cli"], cwd=root, env=env,
                           check=True)
        with tr.span("models.library"):
            model_library()
        out = io.StringIO()
        cwd = os.getcwd()
        os.chdir(root)
        try:
            with tr.span("cli.main"), redirect_stdout(out):
                cli_main(list(argv))
        finally:
            os.chdir(cwd)
        tr.count("cli.stdout_bytes", len(out.getvalue().encode()))
        with tr.span("modelfile.parse"):
            model = parse_model(model_text)
        tr.count("modelfile.parse_bytes", len(model_text.encode()))
        with tr.span("modelfile.format"):
            format_model(model)

    return probe


def load_cli_expected():
    with open(CLI_EXPECTED, encoding="utf-8") as fh:
        return json.load(fh)


def write_cli_model(root):
    """Write the --model file; returns the model and its text."""
    model = cli_model()
    text = format_model(model)
    if parse_model(text) != model:
        raise Mismatch("model file does not round-trip")
    os.makedirs(os.path.join(root, WORK_DIR), exist_ok=True)
    with open(os.path.join(root, MODEL_FILE), "w", encoding="utf-8") as fh:
        fh.write(text)
    return model, text


def setup_cli_cold(seed, root, small, tr):
    rng = random.Random(seed)
    model, text = write_cli_model(root)
    env = cli_env(root)
    commands = (README_COMMANDS[-1], MODEL_COMMANDS[2]) if small else (
        README_COMMANDS + MODEL_COMMANDS)
    expected = load_cli_expected()
    rounds = []
    for _ in range(1 if small else 3):
        order = list(commands)
        rng.shuffle(order)
        rounds.append([cli_op(argv, root, env, expected) for argv in order])

    def warmup_step(op):
        # bytecode compilation and the first-touch file cache stay out of
        # the timed loop; a command that fails here fails there too
        def step():
            try:
                op.run(NULL)
            except (Mismatch, subprocess.SubprocessError):
                pass

        return step

    sizes = {name: simplex_count(K) for name, K in model.complexes.items()}
    return Workload("cli-cold", rounds, {"simplices": sizes, "model_bytes": len(text)},
                    warmup=[warmup_step(op) for op in rounds[0]],
                    probe=cli_probe(root, env, text))


def record_cli_expected(root):
    """Write the exit code and stdout sha256 of every cli-cold command."""
    write_cli_model(root)
    env = cli_env(root)
    table = {}
    for argv in README_COMMANDS + MODEL_COMMANDS:
        proc = run_cli_child(argv, root, env)
        table[" ".join(argv)] = {
            "exit": proc.returncode,
            "sha256": hashlib.sha256(proc.stdout).hexdigest(),
        }
    with open(CLI_EXPECTED, "w", encoding="utf-8") as fh:
        json.dump(table, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return table


SETUPS = {
    "homology-scaling": setup_homology_scaling,
    "real-structures": setup_real_structures,
    "invariants": setup_invariants,
    "cli-cold": setup_cli_cold,
}
