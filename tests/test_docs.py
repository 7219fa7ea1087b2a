"""The demos and the README's library examples run as written."""

import runpy
from pathlib import Path

import covreduct as cr

from conftest import readme_block


def test_demos_and_readme_quickstart_run(capsys):
    demos = sorted((Path(__file__).parents[1] / "demos").glob("*.py"))
    assert demos
    for demo in demos:
        runpy.run_path(str(demo), run_name="__main__")
    namespace = {}
    exec(readme_block("## Library quickstart", "python"), namespace)
    # The README's cache example is the quickstart system's cache.
    example = readme_block("print(cr.serialize_cache(cache))", "json")
    assert cr.serialize_cache(namespace["cache"]) == example
