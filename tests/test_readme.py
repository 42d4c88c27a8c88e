"""The README's `## Library` example runs as written, and the values its
comments state hold."""
import os
import re
from fractions import Fraction

from chowops import ModPClass, make_class

README = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "README.md")


def library_block():
    """The one Python block of the README's `## Library` section."""
    with open(README, encoding="utf-8") as fh:
        text = fh.read()
    section = text.split("\n## Library\n", 1)[1].split("\n## ", 1)[0]
    blocks = re.findall(r"```python\n(.*?)```", section, re.S)
    assert len(blocks) == 1, len(blocks)
    return blocks[0]


def test_the_library_example_runs_and_its_comments_hold():
    ns = {}
    exec(compile(library_block(), README, "exec"), ns)
    Q3, h = ns["Q3"], ns["h"]
    assert ns["degree"](h * h * h) == 2
    assert h.exp() == make_class(Q3, {"h^0": 1, "h^1": 1, "l_1": 1,
                                      "l_0": Fraction(1, 3)})
    assert not h.exp().is_integral()
    assert ns["dec"].verify() is True
    assert ns["steenrod_cohomological"](ns["xbar"]) == [
        ModPClass(Q3, 2, {"l_1": 1}), ModPClass(Q3, 2, {"l_0": 1})]
    f = ns["f"]
    assert f.target.name == "P^4"
    assert ns["pushforward"](f, h * h) == make_class(f.target, {"h^3": 2})
