"""One set-up of a scenario run: import, scenario table, fixture check.

Run as ``python3 perfbench/setup_probe.py <builtin scenario>`` with the
package's ``src`` directory on ``PYTHONPATH``; prints ``ready`` when done.
"""

import sys

import semidim

semidim.builtin_scenarios()[sys.argv[1]].validate_expected()
print("ready", flush=True)
