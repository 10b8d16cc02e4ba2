import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

# CLI tests run `python -m lineheat` in child processes; let them import the
# package from this checkout as the test process does (pyproject pythonpath)
SRC = os.path.join(os.path.dirname(HERE), "src")
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
