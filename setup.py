"""Setuptools entry point (legacy editable installs in offline environments)."""
from setuptools import setup, find_packages

setup(
    name="repro",
    version="1.0.0",
    description="Learning-aided heuristics design for storage systems (SIGMOD'21 reproduction)",
    package_dir={"": "src"},
    packages=find_packages(where="src"),
    package_data={"": ["*.c"]},
    python_requires=">=3.10",
    install_requires=["numpy>=1.24"],
)
