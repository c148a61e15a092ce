"""Package metadata and console entry points.

Installing the package (``pip install -e .``) provides the ``repro-bench``
command, which reproduces paper figures and runs custom sweeps through
the experiment engine; ``python -m repro`` works without installing.
"""

import re
from pathlib import Path

from setuptools import find_packages, setup

# Read the version as text: importing the package here would need it
# installed (and its Python version) before it is.
VERSION = re.search(
    r'^__version__ = "([^"]+)"$',
    (Path(__file__).parent / "src" / "repro" / "__init__.py").read_text(),
    re.MULTILINE,
).group(1)

setup(
    name="mi6-repro",
    version=VERSION,
    description=(
        "Reproduction of 'MI6: Secure Enclaves in a Speculative "
        "Out-of-Order Processor' (Bourgeat et al., MICRO 2019)"
    ),
    package_dir={"": "src"},
    packages=find_packages(where="src"),
    python_requires=">=3.11",
    entry_points={
        "console_scripts": [
            "repro-bench=repro.cli:main",
        ]
    },
)
