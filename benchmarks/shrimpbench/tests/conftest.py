"""Make the simulator importable for the in-process self-tests."""

import os
import sys

SRC = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                   os.pardir, os.pardir, os.pardir, "src")
if os.path.abspath(SRC) not in map(os.path.abspath, sys.path):
    sys.path.insert(0, os.path.abspath(SRC))
