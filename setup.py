"""Package metadata and install script: ``pip install -e .``.

This file is the project's only build configuration (there is no
``pyproject.toml``); the tests and benchmarks also run uninstalled with
``PYTHONPATH=src``.
"""

from setuptools import find_packages, setup

setup(
    name="repro",
    version="0.1.0",
    description=(
        "Reproduction of MCBP: a memory-compute efficient LLM inference "
        "accelerator leveraging bit-slice-enabled sparsity and repetitiveness"
    ),
    package_dir={"": "src"},
    packages=find_packages(where="src"),
    python_requires=">=3.9",
    install_requires=["numpy>=1.22"],
)
