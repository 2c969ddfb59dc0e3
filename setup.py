"""Setuptools shim.

The execution environment has no ``wheel`` package, so PEP 660
editable installs (which build an editable wheel) fail.  This shim
lets ``pip install -e . --no-use-pep517 --no-build-isolation`` fall
back to the classic ``setup.py develop`` path, which needs no wheel.
"""

from setuptools import find_packages, setup

setup(
    name="repro",
    version="1.0.0",
    description=(
        "Reproduction of 'G-TSC: Timestamp Based Coherence for GPUs' "
        "(HPCA 2018)"
    ),
    package_dir={"": "src"},
    packages=find_packages(where="src"),
    python_requires=">=3.9",
)
