"""One device-sweep request, kept free of imports so a fresh interpreter
can run it for the set-up probe without loading the rest of the harness."""


def characterise(q, entry: dict) -> dict:
    """Full single-device characterisation through the public API of ``q``
    (the ``qdmcell`` package): I-V curve, then every observable of it."""
    params = q.ModelParams(gamma_c=entry["gamma_c"],
                           gamma_v=entry["gamma_v"]).with_distance(entry["d"])
    curve = q.iv_curve(params, kind=entry["kind"],
                       grid=q.GridSpec(n=entry["n"]),
                       alignment=entry["alignment"])
    mpp = q.max_power_point(curve=curve)
    jsc = q.short_circuit_current(curve)
    voc = q.open_circuit_voltage(curve.params, kind=entry["kind"])
    return {"P_m": mpp.P_m, "V_mpp": mpp.V_mpp, "j_mpp": mpp.j_mpp,
            "eta": mpp.eta, "Voc": voc.value, "jsc": jsc.value,
            "kTc": curve.params.kTc, "kTs": curve.params.kTs}
