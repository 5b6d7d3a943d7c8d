"""One-time calibration: measure miss-rate tables for the standard workloads.

Run:  PYTHONPATH=src python tools/calibrate_missmodel.py
Paste the printed CALIBRATED_TABLES body into repro/archsim/missmodel.py.

Calls ``measure_miss_model``, which answers the whole (level, size) grid
in one pass over the trace — the per-set Mattson profiler for LRU, the
batched multi-configuration engine for FIFO and random — so a full
2 M-access calibration of all three suites takes a few seconds.
"""
import argparse
import time

from repro.archsim.missmodel import measure_miss_model
from repro.archsim.workloads import STANDARD_WORKLOADS

N = 2_000_000


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--n-accesses", type=int, default=N)
    parser.add_argument("--policy", default="lru",
                        choices=("lru", "fifo", "random"),
                        help="replacement policy at both levels (the "
                             "committed tables are LRU)")
    parser.add_argument("--l1-assocs", default=None, metavar="A,A,...",
                        help="comma-separated L1 associativities to measure "
                             "alongside the reference shape (powers of two)")
    parser.add_argument("--l2-assocs", default=None, metavar="A,A,...",
                        help="comma-separated L2 associativities to measure "
                             "alongside the reference shape (powers of two)")
    arguments = parser.parse_args()

    def _assoc_axis(raw):
        if raw is None:
            return None
        return tuple(int(value) for value in raw.split(",") if value.strip())

    l1_assocs = _assoc_axis(arguments.l1_assocs)
    l2_assocs = _assoc_axis(arguments.l2_assocs)

    t0 = time.time()
    print("CALIBRATED_TABLES: Dict[str, MissRateModel] = {")
    for name, spec in STANDARD_WORKLOADS.items():
        model = measure_miss_model(
            spec,
            n_accesses=arguments.n_accesses,
            seed=1,
            policy=arguments.policy,
            l1_assocs=l1_assocs,
            l2_assocs=l2_assocs,
            use_disk_cache=False,
        )
        print(f'    "{name}": MissRateModel(')
        print(f'        workload="{name}",')
        print(f'        l1_curve=(')
        for size, rate in model.l1_curve:
            print(f'            ({size}, {rate:.5f}),')
        print(f'        ),')
        print(f'        l2_curve=(')
        for size, rate in model.l2_curve:
            print(f'            ({size}, {rate:.5f}),')
        print(f'        ),')
        for label, curves in (
            ("l1_assoc_curves", model.l1_assoc_curves),
            ("l2_assoc_curves", model.l2_assoc_curves),
        ):
            if not curves:
                continue
            print(f'        {label}=(')
            for assoc, curve in curves:
                print(f'            ({assoc}, (')
                for size, rate in curve:
                    print(f'                ({size}, {rate:.5f}),')
                print(f'            )),')
            print(f'        ),')
        print(f'    ),')
    print("}")
    print(f"# measured with n_accesses={arguments.n_accesses}, seed=1, "
          f"policy={arguments.policy}, "
          f"l1_assocs={l1_assocs}, l2_assocs={l2_assocs}, "
          f"in {time.time()-t0:.0f}s")


if __name__ == "__main__":
    main()
