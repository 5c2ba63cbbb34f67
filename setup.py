"""Legacy setuptools entry point.

The offline evaluation environment ships setuptools 65 without ``wheel``,
which breaks PEP 660 editable installs.  This thin ``setup.py`` keeps
``pip install -e .`` working there.  There is no ``pyproject.toml``: the
little metadata the package has lives here, and tests and benchmarks run
straight off ``src/`` (``PYTHONPATH=src``).
"""

from setuptools import find_packages, setup

setup(
    name="repro",
    version="0.0.0",
    package_dir={"": "src"},
    packages=find_packages("src"),
)
