"""Write the key-rate reference that the keyrate_scan workload checks against.

    python3 bench/make_reference.py

Run it from the root of a checkout only when the scan grid or the key-rate
formulas change on purpose; the committed file is what later runs must match.
"""
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import workloads  # noqa: E402

if __name__ == "__main__":
    rates = workloads.reference_rates()
    grid = {
        **workloads.ScanConfig().__dict__,
        "psk_orders": workloads.SCAN_PSK_ORDERS,
        "classifier_auc": workloads.SCAN_AUC,
    }
    payload = {"grid": grid, "key_rates": rates}
    workloads.REFERENCE_PATH.write_text(json.dumps(payload, indent=0, sort_keys=True) + "\n")
    print(f"{len(rates)} key rates written to {workloads.REFERENCE_PATH.name}")
