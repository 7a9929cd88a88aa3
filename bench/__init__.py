"""Benchmark of the serving simulator, run as ``python -m bench`` (see ``bench/README.md``).

The simulator is always imported from the ``src`` tree of the checkout this
package sits in, never from an installed copy, so a checkout measures its own
code.
"""

import sys
from pathlib import Path

#: Root of the checkout that holds this package.
ROOT = Path(__file__).resolve().parent.parent
#: The simulator's source tree inside that checkout.
SRC = ROOT / "src"

if sys.path[:1] != [str(SRC)]:
    sys.path.insert(0, str(SRC))
