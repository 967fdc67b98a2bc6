"""Experiment harness: one function per table/figure of the paper.

The names below load on first use, so importing a submodule (the
runners import :mod:`repro.harness.matrix`) does not import every
experiment.
"""

import importlib

_EXPORTS = {
    "fig3_redis_save": "experiments",
    "fig4_redis_fork_latency": "experiments",
    "fig5_redis_memory": "experiments",
    "fig6_faas_throughput": "experiments",
    "fig7_nginx_throughput": "experiments",
    "fig8_hello_fork": "experiments",
    "fig9_unixbench": "experiments",
    "copa_ablation": "experiments",
    "DEFAULT_DB_SIZES": "experiments",
    "FULL_DB_SIZES": "experiments",
    "compatibility_matrix": "compat",
    "matrix_rows": "compat",
    "format_table": "report",
    "print_table": "report",
    "table1_rows": "table1",
}

__all__ = list(_EXPORTS)


def __getattr__(name):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute "
                             f"{name!r}")
    return getattr(importlib.import_module(f"{__name__}.{module}"), name)
