#!/bin/sh
# Seeded audit of the closed-form bounds against measured invariants on
# random FI-module instances, run from this checkout (python3 -m
# fistab.cli with the repo's src first on PYTHONPATH). Pass a seed as the
# first argument (default 2025).
set -e

PYTHONPATH="$(cd "$(dirname "$0")/.." && pwd)/src${PYTHONPATH:+:$PYTHONPATH}"
export PYTHONPATH
python3 -m fistab.cli bounds audit --seed "${1:-2025}" --json
