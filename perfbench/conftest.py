import os
import sys

# The self-tests import the checkout's library, as the benchmark does.
sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))
