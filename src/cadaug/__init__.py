"""cadaug: CAD variable-ordering selection with symmetry-based data augmentation."""

import os

# OpenBLAS reads its thread count when numpy is first imported, so this
# holds only if cadaug is imported before numpy.  The products here are
# small (a knn query block against its training rows), and waking the
# threads cost tens of times the product itself.  An explicit setting
# wins
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

__version__ = "0.1.0"
