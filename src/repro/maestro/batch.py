"""Vectorised batch estimation: the cost model's formulas as array programs.

A design-space sweep estimates thousands of ``(layer shape, hardware)`` pairs,
and every one of them evaluates the same closed-form accounting —
:func:`repro.maestro.reuse.analyse_reuse` access counts followed by
:func:`repro.maestro.cost._estimate` roofline/energy terms.  Interpreting that
arithmetic per pair in Python is the remaining wall-clock of the Fig. 11 sweep
(ROADMAP item 2), so this module evaluates it once per *formula term* instead:
all missing shapes of one ``(dataflow style, hardware configuration)`` group
are stacked into int64/float64 arrays and each term becomes a single vector
operation.

Bit-for-bit contract
--------------------
:func:`batch_estimate` must be indistinguishable from the scalar path — the
golden corpus and the DSE ranking gates compare costs bitwise.  The guarantees
this leans on:

* every reuse/tiling quantity is non-negative integer arithmetic; numpy int64
  ``//``, ``%``, ``np.minimum``/``np.maximum`` and the ``-(-a // b)`` ceiling
  idiom agree exactly with Python ints (and the counts stay far below 2**63);
* the float terms perform the *same* operations in the *same* order as the
  scalar code: an int64→float64 cast rounds to nearest exactly like CPython's
  int→float conversion, and ``int64_array / python_float`` therefore equals
  ``python_int / python_float`` elementwise;
* mapping-derived inputs (compute steps, spatial factors, utilisation) are
  read from the memoised mapper itself, so they are literally the same values
  the scalar path consumes.

numpy is optional: the probe below feeds :meth:`CostModel._use_vectorized`,
and every caller falls back to the scalar estimator when numpy is missing.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.units import BYTES_PER_ELEMENT
from repro.dataflow.mapping import build_mapping
from repro.dataflow.styles import DataflowStyle
from repro.maestro.cost import (
    LAYER_OVERHEAD_CYCLES,
    RDA_INTERCONNECT_OVERHEAD,
    RDA_RECONFIGURATION_CYCLES,
    LayerCost,
)
from repro.maestro.energy import EnergyTable
from repro.maestro.reuse import MAX_REFETCH
from repro.models.layer import Layer

#: Below this many shapes per (style, hardware) group the per-call numpy
#: overhead outweighs the per-shape interpretation it removes; auto mode
#: (``CostModel(vectorized=None)``) keeps such batches on the scalar path.
MIN_BATCH_SIZE = 8

_numpy = None
_numpy_probed = False


def numpy_available() -> bool:
    """Whether the vectorised path can run (numpy importable; probed once)."""
    global _numpy, _numpy_probed
    if not _numpy_probed:
        _numpy_probed = True
        try:
            import numpy
        except ImportError:
            _numpy = None
        else:
            _numpy = numpy
    return _numpy is not None


#: Entry cap of the per-(shape, style, PE budget) integer-row memo.
_ROWS_MEMO_MAX = 200_000

#: Mapping-derived integers of one layer, independent of buffer/bandwidth:
#: everything :func:`analyse_reuse` and ``_estimate`` read apart from the
#: hardware scalars.  Buffer-dependent quantities (fits/refetch/restream) are
#: recomputed per call because the same shape appears under many buffer shares.
_rows_memo: Dict[Tuple, Tuple] = {}


def clear_batch_cache() -> None:
    """Drop the memoised per-shape integer rows (cold-run measurements)."""
    _rows_memo.clear()


def _integer_rows(layer: Layer, style: DataflowStyle, num_pes: int) -> Tuple:
    """The buffer-independent inputs of one (layer, style, PE budget) triple.

    Returns ``(macs, filter_elems, input_elems, output_elems, total_elems,
    out_y, out_x, r, s, stride, k_dim, acc_channels, accumulates, f_K, f_C,
    f_OY, f_OX, f_R, compute_steps, utilisation)`` — the first nineteen are
    Python ints, ``utilisation`` is the mapper's own float (copied, not
    recomputed, so it is bitwise the scalar value).
    """
    key = (layer.shape_key, style, num_pes)
    row = _rows_memo.get(key)
    if row is not None:
        return row
    mapping = build_mapping(layer, style, num_pes)
    factor = mapping.spatial_factors.get
    row = (
        layer.macs,
        layer.filter_elements,
        layer.input_elements,
        layer.output_elements,
        layer.total_elements,
        layer.out_y,
        layer.out_x,
        layer.r,
        layer.s,
        layer.stride,
        1 if layer.layer_type.is_depthwise else layer.k,
        layer.c if layer.accumulates_across_channels else 1,
        1 if layer.accumulates_across_channels else 0,
        factor("K", 1),
        factor("C", 1),
        factor("OY", 1),
        factor("OX", 1),
        factor("R", 1),
        mapping.compute_steps,
        mapping.utilisation,
    )
    if len(_rows_memo) < _ROWS_MEMO_MAX:
        _rows_memo[key] = row
    return row


def batch_estimate(layers: Sequence[Layer], style: DataflowStyle, num_pes: int,
                   bandwidth_bytes_per_cycle: float,
                   dram_bytes_per_cycle: float, buffer_bytes: int,
                   clock_hz: float, energy_table: EnergyTable,
                   reconfigurable: bool) -> List[LayerCost]:
    """Estimate ``layers`` on one concrete array configuration, vectorised.

    The array program mirrors :func:`repro.maestro.cost._estimate` term for
    term (see the module docstring for why the results are bitwise-equal);
    returns one :class:`LayerCost` per input layer, in order.
    """
    if not numpy_available():  # pragma: no cover - callers gate on the probe
        raise RuntimeError("batch_estimate requires numpy; use the scalar path")
    np = _numpy
    if not layers:
        return []

    rows = [_integer_rows(layer, style, num_pes) for layer in layers]
    columns = list(zip(*rows))
    (macs, filter_elems, input_elems, output_elems, total_elems, out_y, out_x,
     r, s, stride, k_dim, acc_channels, accumulates, f_k, f_c, f_oy, f_ox,
     f_r, compute_steps) = (np.asarray(col, dtype=np.int64)
                            for col in columns[:19])
    utilisation = columns[19]

    one = np.int64(1)
    fits_input = input_elems * BYTES_PER_ELEMENT <= buffer_bytes
    fits_filter = filter_elems * BYTES_PER_ELEMENT <= buffer_bytes

    if style.stationary == "weight":
        k_unroll = np.maximum(one, f_k)
        c_unroll = np.maximum(one, f_c)
        filter_fills = np.maximum(filter_elems,
                                  macs // np.maximum(one, out_y * out_x))
        input_fills = np.maximum(input_elems, macs // k_unroll)
        reduction = np.where(accumulates == 1, c_unroll * r * s, r * s)
        output_accesses = np.maximum(output_elems,
                                     (2 * macs) // np.maximum(one, reduction))
        input_restream = np.where(
            fits_input, one,
            np.minimum(np.int64(MAX_REFETCH), -(-k_dim // k_unroll)))
        tile_elements = (filter_elems + input_elems * input_restream
                         + output_elems)
    elif style.stationary == "output":
        spatial = np.maximum(one, f_oy * f_ox)
        conv_reuse = np.maximum(one, (r * s) // (stride * stride))
        filter_fills = np.maximum(filter_elems, macs // spatial)
        input_fills = np.maximum(input_elems, macs // conv_reuse)
        output_accesses = np.maximum(output_elems,
                                     (2 * macs) // (acc_channels * r * s))
        input_restream = np.where(
            fits_input, one, np.minimum(np.int64(MAX_REFETCH), k_dim))
        filter_restream = np.where(
            fits_filter, one,
            np.minimum(np.int64(MAX_REFETCH),
                       -(-(out_y * out_x) // np.maximum(one, spatial))))
        tile_elements = (filter_elems * filter_restream
                         + input_elems * input_restream + output_elems)
    else:
        y_unroll = np.maximum(one, f_oy)
        r_unroll = np.maximum(one, f_r)
        filter_fills = np.maximum(
            filter_elems, macs // (y_unroll * np.maximum(one, out_x)))
        input_fills = np.maximum(
            input_elems,
            macs // (r_unroll * np.maximum(one, r // np.maximum(one, stride))))
        output_accesses = np.maximum(
            output_elems, (2 * macs) // np.maximum(one, r_unroll * s))
        k_unroll = np.maximum(one, f_k)
        input_restream = np.where(
            fits_input, one,
            np.minimum(np.int64(MAX_REFETCH), -(-k_dim // k_unroll)))
        filter_restream = np.where(
            fits_filter, one,
            np.minimum(np.int64(MAX_REFETCH), -(-out_y // y_unroll)))
        tile_elements = (filter_elems * filter_restream
                         + input_elems * input_restream + output_elems)

    rf_accesses = 4 * macs
    working_set_bytes = total_elems * BYTES_PER_ELEMENT
    refetch = np.where(
        working_set_bytes <= buffer_bytes, one,
        np.minimum(np.int64(MAX_REFETCH), -(-working_set_bytes // buffer_bytes)))
    dram_accesses = (filter_elems + input_elems + output_elems
                     + input_elems * (refetch - 1))
    local_fills = filter_fills + input_fills + output_accesses

    compute_cycles = compute_steps.astype(np.float64)
    noc_cycles = (tile_elements * BYTES_PER_ELEMENT) / bandwidth_bytes_per_cycle
    dram_cycles = (dram_accesses * BYTES_PER_ELEMENT) / dram_bytes_per_cycle
    overhead_cycles = float(LAYER_OVERHEAD_CYCLES)

    table = energy_table
    energy_overhead = np.zeros(len(rows), dtype=np.float64)
    if reconfigurable:
        table = energy_table.with_interconnect_overhead(RDA_INTERCONNECT_OVERHEAD)
        overhead_cycles += RDA_RECONFIGURATION_CYCLES
        energy_overhead = (energy_table.reconfiguration
                           + macs * energy_table.rda_distribution_per_mac)

    energy_compute = macs * table.mac
    energy_rf = rf_accesses * table.rf_access
    energy_local = local_fills * table.local_buffer_access
    energy_noc = tile_elements * table.noc_hop
    energy_sram = tile_elements * table.sram_access
    energy_dram = dram_accesses * table.dram_access

    style_name = style.name
    # ``tolist`` converts each float64 array to Python floats in one C pass;
    # the values are the same doubles ``float(array[i])`` produced, without a
    # per-element numpy-scalar box and unbox.
    compute_cycles = compute_cycles.tolist()
    noc_cycles = noc_cycles.tolist()
    dram_cycles = dram_cycles.tolist()
    energy_compute = energy_compute.tolist()
    energy_rf = energy_rf.tolist()
    energy_local = energy_local.tolist()
    energy_noc = energy_noc.tolist()
    energy_sram = energy_sram.tolist()
    energy_dram = energy_dram.tolist()
    energy_overhead = energy_overhead.tolist()
    return [
        LayerCost(
            layer=layers[i],
            dataflow_name=style_name,
            num_pes=num_pes,
            compute_cycles=compute_cycles[i],
            noc_cycles=noc_cycles[i],
            dram_cycles=dram_cycles[i],
            overhead_cycles=overhead_cycles,
            energy_compute_pj=energy_compute[i],
            energy_rf_pj=energy_rf[i],
            energy_local_pj=energy_local[i],
            energy_noc_pj=energy_noc[i],
            energy_sram_pj=energy_sram[i],
            energy_dram_pj=energy_dram[i],
            energy_overhead_pj=energy_overhead[i],
            utilisation=utilisation[i],
            clock_hz=clock_hz,
        )
        for i in range(len(rows))
    ]
