"""``python -m bench [...]`` runs the benchmark; ``python -m bench compare A B`` compares runs."""

import os
import sys

# One thread per numerical library: set before numpy is first imported, and
# inherited by the cold-start children.
for _variable in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_variable] = "1"

if sys.argv[1:2] == ["compare"]:
    from .compare import main

    sys.exit(main(sys.argv[2:]))

from .run import main  # noqa: E402

sys.exit(main(sys.argv[1:]))
