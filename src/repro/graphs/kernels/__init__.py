"""A name catalog kept for ``perfbench/workload.py::set_up``, its only caller."""


def kernel_names() -> tuple[str, ...]:
    """The one row storage :class:`repro.graphs.graph.Graph` uses."""
    return ("bigint",)
