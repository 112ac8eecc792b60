"""Child processes that the tests start import logcharts from this
checkout's src/, as the test process does through the ``pythonpath``
setting in pyproject.toml."""

import os

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
os.environ["PYTHONPATH"] = os.pathsep.join([SRC, *filter(None, [os.environ.get("PYTHONPATH")])])
