"""Set-up time of a fresh process: ``python3 setup_probe.py SRC``.

Prints the seconds from before ``import mmods`` until the vocabulary
registry and constraint catalog are built, then the path mmods came from.
"""

import sys
import time

start = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import mmods  # noqa: E402

mmods.catalog(mmods.VocabularyRegistry())
print(time.perf_counter() - start, mmods.__file__)
