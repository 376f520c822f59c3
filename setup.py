"""Setup shim.

The execution environment has no network access and no ``wheel`` package,
so PEP 660 editable installs (which shell out to ``bdist_wheel``) fail.
Keeping a classic ``setup.py`` lets ``pip install -e .`` fall back to the
legacy ``setup.py develop`` code path, which works offline.  All real
metadata lives in ``pyproject.toml``.
"""

from setuptools import find_packages, setup

setup(
    name="repro",
    version="1.0.0",
    description=(
        "Reproduction of 'A Way to Automatically Enrich Biomedical "
        "Ontologies' (EDBT 2016)"
    ),
    package_dir={"": "src"},
    packages=find_packages(where="src"),
    python_requires=">=3.10",
    install_requires=["numpy>=1.24"],
    # scipy and networkx are the tests' reference implementations (and
    # scipy.sparse an accepted clustering input) and the bench harness's
    # provenance record; the library never imports them.
    extras_require={"dev": ["networkx>=3.0", "scipy>=1.10"]},
)
