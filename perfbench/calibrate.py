"""Fixed reference task that measures how fast the host runs right now.

    python calibrate.py

run.py times this script next to every measured invocation and divides
the end-to-end times by its median, so that drift in the speed of a shared
machine cancels. It does what the pipeline does, independently of
profilerank: start an interpreter, import numpy, format and parse decimals
and run small pseudo-inverses. Changing it changes the scale of every
end-to-end time.
"""

import numpy as np

rng = np.random.default_rng(0)
x = rng.standard_normal((3000, 20))
text = "\n".join(",".join(repr(float(v)) for v in row) for row in x)
rows = [[float(t) for t in line.split(",")] for line in text.splitlines()]
a = np.array(rows)
for i in range(600):
    np.linalg.pinv(a[i:i + 20, :4])
