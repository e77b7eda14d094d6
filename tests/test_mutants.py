"""The mutation suite's stale check, run without starting a subprocess.

tests/mutants.py runs each mutant's tests in a subprocess; that run is a
separate CI step.  Here only the text matching is checked: a mutant
whose old text does not occur exactly once is reported as stale and
fails the run before any test is started for it.
"""

import mutants
from mutants import Mutant, stale


def test_a_stale_mutant_is_named_and_fails_the_run_without_running(tmp_path, monkeypatch, capsys):
    (tmp_path / "actcovers").mkdir()
    (tmp_path / "actcovers" / "a.py").write_text("x = 1\ny = 1\n")

    def mutant(name, old):
        return Mutant(name, "a.py", old, "", ("tests/test_a.py",))

    monkeypatch.setattr(mutants, "SRC", tmp_path)
    monkeypatch.setattr(mutants, "MUTANTS",
                        (mutant("once", "x = 1"), mutant("twice", " = 1\n"), mutant("gone", "z = 1")))
    ran = []
    monkeypatch.setattr(mutants, "run", lambda mu: ran.append(mu.name) or "killed")
    assert mutants.main() == 1
    assert ran == ["once"]
    assert capsys.readouterr().out == (
        "killed    once  (a.py)\n"
        "stale     twice  (a.py)\n"
        "stale     gone  (a.py)\n")


def test_no_mutant_is_stale():
    assert stale(mutants.MUTANTS, mutants.SRC) == []
    assert len({mu.name for mu in mutants.MUTANTS}) == len(mutants.MUTANTS)
