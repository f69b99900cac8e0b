"""The verify harness itself: what its oracle lines exercise, and how it
reports a fast call that raises."""

from __future__ import annotations

import hashlib

from dirmax import maximal
from dirmax.badness import shrink_once
from dirmax.dyadic import DyadicRational
from dirmax.geometry import Parallelogram
from dirmax.instances import build_corpus
from dirmax.verify import (
    ORACLE_SHRINK_LAMBDA0,
    VerifyReport,
    check_exact_identities,
    check_oracle_equivalence,
    run_verify,
)


def test_oracle_shrink_lambda_selects_windows(corpus):
    # at this lambda0 the oracle shrink_once line compares non-empty sets
    small = [inst for inst in corpus if inst.spec.m <= 4]
    assert len(small) == 50
    for inst in small:
        shrunk, _ = shrink_once(inst.covered, inst.rho, ORACLE_SHRINK_LAMBDA0, audit=False)
        assert len(shrunk), inst.name


def test_fast_call_that_raises_is_a_fail_line(tmp_path, monkeypatch):
    corpus = [inst for inst in build_corpus() if inst.spec.m == 3][:4]
    for inst in corpus:
        inst.rho  # built before the fault

    def broken(fam, f):
        raise RuntimeError("injected fault")

    monkeypatch.setattr(maximal, "_scaled_averages", broken)
    report = run_verify(corpus=corpus, out_dir=tmp_path)
    lines = report.to_text().splitlines()
    assert not report.ok
    maximal_line = next(line for line in lines if line.startswith("FAIL oracle maximal_apply"))
    assert "reproducer:" in maximal_line
    repro = sorted(p.name for p in tmp_path.iterdir())
    assert repro == sorted(f"mismatch_maximal_{inst.name}.txt" for inst in corpus)
    text = (tmp_path / repro[0]).read_text()
    assert "raised RuntimeError: injected fault" in text and "in broken" in text
    # the other operations still ran on every instance
    for name in ("enumerate_family", "stopping_intervals", "omega_levels", "badness", "shrink_once"):
        assert f"PASS oracle {name}" in lines
    # a later check that calls the broken kernel fails its own line
    assert any(line.startswith("FAIL check_exact_identities (raised RuntimeError") for line in lines)


def test_flipped_tie_order_fails_the_maximal_line(monkeypatch):
    # the painter ranks members with sorted(); fed the indices the other way
    # round, ties go to the highest index: Mf stays, the choosers move
    names = {"m4_w2_const0_d0", "m4_w2_const0_d1", "m4_w2_rand_d0"}
    corpus = [inst for inst in build_corpus() if inst.name in names]
    assert len(corpus) == 3
    fair = VerifyReport()
    check_oracle_equivalence(fair, corpus)
    assert fair.ok
    flipped = [inst for inst in build_corpus() if inst.name in names]
    monkeypatch.setattr(
        maximal, "sorted", lambda items, key: sorted(reversed(list(items)), key=key), raising=False
    )
    for inst, was in zip(flipped, corpus):
        assert (inst.f, inst.family.sort_keys.tobytes()) == (was.f, was.family.sort_keys.tobytes())
        assert inst.rho.entries.tolist() != was.rho.entries.tolist()
        assert maximal.maximal_apply(inst.f, inst.family) == maximal.maximal_apply(
            was.f, was.family
        )
    report = VerifyReport()
    check_oracle_equivalence(report, flipped)
    lines = report.to_text().splitlines()
    assert [line for line in lines if line.startswith("FAIL")] == [
        "FAIL oracle maximal_apply (chooser mismatch)"
    ]


def test_m5_verify_builds_no_members_and_its_text_is_pinned(monkeypatch):
    """The bench pins the verify stages up to m = 4; this pins the report on
    the ten m = 5 instances, whose badness split runs on member indices.
    Building the corpus and verifying it builds no member view (Parallelogram)."""
    built = []
    init = Parallelogram.__init__

    def spy(self, *args):
        built.append(self)
        init(self, *args)

    monkeypatch.setattr(Parallelogram, "__init__", spy)
    corpus = [inst for inst in build_corpus() if inst.spec.m == 5]
    assert len(corpus) == 10
    text = run_verify(corpus=corpus).to_text()
    assert built == []
    digest = "bd819c66661850cb3f1fa922c74f595c17de3d0937f33d878d7b180f5d5bbe85"
    assert hashlib.sha256(text.encode()).hexdigest() == digest


def test_oracle_and_identity_checks_hand_the_oracle_fractions(corpus, monkeypatch):
    """The oracle reads Fractions, which verify makes from a grid's integer
    numerators: a DyadicRational per cell only to convert it would take the
    two checks on the m <= 4 corpus to about 19,300 and 11,500."""
    small = [inst for inst in corpus if inst.spec.m <= 4]
    assert len(small) == 50
    for inst in small:  # the cached family, rho and cell set are the corpus's work
        inst.covered
    counts = []
    for check in (check_oracle_equivalence, check_exact_identities):
        built = []
        init = DyadicRational.__init__
        monkeypatch.setattr(DyadicRational, "__init__", lambda self, *a: built.append(a) or init(self, *a))
        report = VerifyReport()
        check(report, small)
        monkeypatch.undo()
        assert report.ok
        counts.append(len(built))
    assert counts[0] <= 1700 and counts[1] <= 2050
