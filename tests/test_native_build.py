"""What the C side repeats from `bitlinalg` stays equal to it.

The CI step that compiles `_packed.c` with warnings as errors spells out
the kernel's build flags, and `_packed.c` sizes its per-thread arrays
with its own thread cap. This reads both files as text.
"""

import re
from pathlib import Path

from bingcn import bitlinalg as bl

ROOT = Path(__file__).resolve().parent.parent
WORKFLOW = ROOT / ".github" / "workflows" / "tests.yml"
STRICT_STEP = "Compile the packed C kernel with warnings as errors"


def step_text(name):
    """The text of the workflow step called `name`, up to the next step."""
    text = WORKFLOW.read_text()
    start = text.index(f"- name: {name}\n")
    end = text.find("- name: ", start + 1)
    return text[start:] if end < 0 else text[start:end]


def test_strict_compile_step_passes_every_build_flag():
    tokens = step_text(STRICT_STEP).replace("\\\n", " ").split()
    assert "-Werror" in tokens
    assert [flag for flag in bl._COMPILE[1:] if flag not in tokens] == []


def test_c_thread_cap_is_the_python_one():
    source = bl._SOURCE.read_text()
    (cap,) = re.findall(r"^#define MAX_THREADS (\d+)$", source, flags=re.MULTILINE)
    assert int(cap) == bl._MAX_THREADS
