"""Setuptools shim.

The repository carries no other packaging metadata: setuptools discovers the
``repro`` package under ``src/`` on its own, and the tests, benchmarks and CLI
run straight from the source tree with ``PYTHONPATH=src`` (see ``README.md``).
This file exists so the package can be installed in editable mode on offline
machines whose setuptools lacks the PEP 660 editable-wheel path (no ``wheel``
package).
"""

from setuptools import setup

setup()
