"""The mutation census's own machinery, without running a mutant.

``tools/mutation_census.py`` takes tens of minutes; this checks in well
under a second that its sites repeat at one seed, that every operator
makes a mutant that compiles and differs, that a mutant is always undone,
and that the tool will not write into the tree it reads.
"""

import os
import sys
from queue import Queue

import pytest

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(__file__)), "tools"))

import mutation_census as mc  # noqa: E402

#: One instance of every operator, with a comment and a continuation line
#: between operands, and annotations and an f-string that must stay whole.
SOURCE = '''\
def f(a: int, b) -> int:
    if a < b and a <= 3 or a is None:
        return a + b  # a - b would be wrong
    if a > b or a >= b and a is not b:
        b -= 1
    total: int = (a ==  # same line? no
                  b) != (a - 2)
    total += 4
    print(f"{a + 1}")
    g(a,
      b)
    return total
'''


def _sites():
    return mc.enumerate_sites("snippet.py", SOURCE)


def test_sites_repeat_at_one_seed():
    for module in mc.MODULES:
        with open(os.path.join(mc.ROOT, mc.PACKAGE, module)) as fh:
            source = fh.read()
        first = mc.sample_sites(module, source, seed=1, per_module=60)
        assert first == mc.sample_sites(module, source, seed=1, per_module=60)
        assert len(first) == 60
        assert first != mc.sample_sites(module, source, seed=2, per_module=60)


def test_every_operator_compiles_and_differs():
    sites = _sites()
    seen = {site.operator for site in sites}
    for flip in ("<", "<=", ">", ">=", "==", "!=", "is", "is not", "and", "or"):
        assert any(op.startswith(flip + " ->") for op in seen), flip
    assert {"+ -> -", "- -> +", "+= -> -=", "-= -> +=", "3 -> 4", "3 -> 2", "del call"} <= seen
    for site in sites:
        mutant = mc.mutate(SOURCE, site)
        assert mutant != SOURCE
        compile(mutant, "snippet.py", "exec")
        assert mutant.count("\n") == SOURCE.count("\n")  # every line keeps its number
    # Annotations and f-string parts are never mutated; the call around
    # the f-string may be deleted.
    assert not [s for s in sites if s.line == 1 or (s.line == 9 and s.operator != "del call")]
    assert {s.function for s in sites} == {"f"}


def test_a_boolean_flip_takes_every_operand_gap():
    (site,) = mc.enumerate_sites("s.py", "x = a and b and c\n")
    assert mc.mutate("x = a and b and c\n", site) == "x = a or b or c\n"


def _one_copy(tmp_path, module="planner/cnf.py"):
    copy = tmp_path / "tree"
    target = copy / mc.PACKAGE / module
    target.parent.mkdir(parents=True)
    with open(os.path.join(mc.ROOT, mc.PACKAGE, module)) as fh:
        source = fh.read()
    target.write_text(source)
    copies = Queue()
    copies.put(str(copy))
    return copies, target, source


@pytest.mark.parametrize("outcome", ["survives", "raises"])
def test_apply_then_restore_is_byte_identical(tmp_path, monkeypatch, outcome):
    copies, target, source = _one_copy(tmp_path)
    before = target.read_bytes()
    site = mc.sample_sites("planner/cnf.py", source, seed=1, per_module=1)[0]
    seen = []

    def fake_pytest(copy, tests, timeout):
        seen.append(target.read_text())
        if outcome == "raises":
            raise KeyboardInterrupt
        return "pass", 0.0

    monkeypatch.setattr(mc, "_pytest", fake_pytest)
    if outcome == "raises":
        with pytest.raises(KeyboardInterrupt):
            mc._run_mutant(copies, site, source, timeout=1.0)
    else:
        result = mc._run_mutant(copies, site, source, timeout=1.0)
        assert (result.verdict, result.stage) == ("survived", "tier 1")
        assert len(seen) == 2  # targeted, then the whole tier 1
    assert seen[0] == mc.mutate(source, site) != source
    assert target.read_bytes() == before
    assert copies.qsize() == 1  # the copy goes back to the pool


def test_refuses_to_write_into_its_own_tree(tmp_path, monkeypatch):
    inside = os.path.join(mc.ROOT, "mutants")
    with pytest.raises(ValueError):
        mc.check_workdir(mc.ROOT, inside)
    with pytest.raises(ValueError):
        mc.check_workdir(mc.ROOT, mc.ROOT)
    mc.check_workdir(mc.ROOT, str(tmp_path))  # outside: fine
    # A temporary directory that lands inside the tree stops the census
    # before it copies anything there.
    monkeypatch.setattr(mc.tempfile, "mkdtemp", lambda prefix: inside)
    with pytest.raises(ValueError):
        mc.main(["planner/cnf.py"])
    assert not os.path.exists(inside)


def test_every_resolved_survivor_names_a_site_of_the_tree():
    """An ``EQUIVALENT`` or ``SECOND_PATHS`` line whose source line went
    away resolves nothing; it goes with its line."""
    sources = {}
    for module, function, line, mutated in [*mc.EQUIVALENT, *mc.SECOND_PATHS]:
        if module not in sources:
            with open(os.path.join(mc.ROOT, mc.PACKAGE, module)) as fh:
                sources[module] = fh.read()
        source = sources[module]
        lines = source.splitlines()
        assert any(
            mutated in (None, mc.mutate(source, site).splitlines()[site.line - 1].strip())
            for site in mc.enumerate_sites(module, source)
            if site.function == function and lines[site.line - 1].strip() == line
        ), (module, function, line, mutated)
