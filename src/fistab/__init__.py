"""Workbench for finite-window computations with symmetric-group towers.

Subpackages are layered bottom-up:

    errors      the exceptions the command line maps to exit codes
    exactlin    exact linear algebra over F_p and Z
    fi_core     truncated consistent sequences (windowed FI-modules)
    fi_homology homology functors, invariants, polynomial fitting
    bounds      closed-form bound calculators and the audit harness
    splitbases  split-basis simplicial complexes and coset complexes
    congruence  congruence-kernel group homology pipeline
    cli         the `fistab` command line tool
"""

__version__ = "0.1.0"
