"""Package metadata for the SAGDFN reproduction (import name ``repro``).

Install into the current environment (NumPy, setuptools and wheel must
already be present; nothing is downloaded):

    pip install --no-build-isolation --no-deps .

or editable, for development:

    pip install -e . --no-build-isolation --no-use-pep517
"""

import re
from pathlib import Path

from setuptools import find_packages, setup


def _version() -> str:
    init = (Path(__file__).parent / "src" / "repro" / "__init__.py").read_text()
    return re.search(r'^__version__ = "([^"]+)"$', init, re.MULTILINE).group(1)


setup(
    name="sagdfn-repro",
    version=_version(),
    description=(
        "NumPy reproduction of SAGDFN, a scalable adaptive graph diffusion "
        "network for multivariate time-series forecasting"
    ),
    package_dir={"": "src"},
    packages=find_packages("src"),
    python_requires=">=3.10",
    install_requires=["numpy"],
)
