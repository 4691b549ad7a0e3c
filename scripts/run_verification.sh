#!/bin/sh
# Full verification battery through the CLI, run from this checkout
# (python3 -m fistab.cli with the repo's src first on PYTHONPATH). Exits
# nonzero on the first failing verdict.
set -e

PYTHONPATH="$(cd "$(dirname "$0")/.." && pwd)/src${PYTHONPATH:+:$PYTHONPATH}"
export PYTHONPATH
fistab() { python3 -m fistab.cli "$@"; }

fistab verify theoremD --p 2 --ell 2 --k 1
fistab verify theoremD --p 3 --ell 2 --k 1
fistab verify charney --m 4 --q 2 --n 3
fistab verify charney --m 4 --q 2 --n 4
fistab verify charney --m 9 --q 3 --n 3
fistab verify spb_in_su --m 4 --q 2 --n 3
fistab verify ygamma --m 4 --q 2 --n 2
fistab verify ygamma --m 4 --q 2 --n 3
fistab cong theoremC --p 2 --ell 2 --n 0 --k 0
fistab cong theoremC --p 2 --ell 2 --n 1 --k 1
fistab cong theoremC --p 2 --ell 2 --n 2 --k 1
fistab cong theoremC --p 2 --ell 2 --n 2 --k 2
fistab cong appB --k 1 --p 2 --N 6
fistab bounds congruence --d 0 --k 1
echo "verification battery passed"
