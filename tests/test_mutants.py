import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load_runner():
    spec = importlib.util.spec_from_file_location("mutation_run", ROOT / "mutation" / "run.py")
    runner = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(runner)
    return runner


def test_every_mutant_applies_to_the_tree():
    # the mutation gate itself runs in CI; here each mutant's old text must
    # still occur once, so a change to the code it mutates updates the list
    runner = load_runner()
    mutants = runner.load()
    assert mutants and runner.stale(mutants) == []
