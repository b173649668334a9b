"""Suite-wide setup: no bytecode is written for the modules the tests
import, so a test run leaves no __pycache__ under src and a later timing of
the package starts from source as a fresh checkout does."""

import sys

sys.dont_write_bytecode = True
