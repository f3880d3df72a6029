"""Forest fire: the canonical *field event* with a closed actuation loop.

Section 4.2's field event ("a physical phenomena, which occurs in an
area, e.g., a forest fire") end to end: a cellular-automaton fire
ignites and spreads; motes flag hot readings; the sink fuses two
ordered, nearby hot reports into a spatio-temporal ``fire_suspected``
field event whose estimated location is the hull of the reporting
motes; the CCU commands suppression, which stops further spread.

The run is repeated with the actuation disabled to show the loop's
physical effect on the burned area.

Run:  python examples/forest_fire.py
"""

from repro.metrics import region_iou
from repro.physical import exceedance_region
from repro.workloads import build_scenario


def run_once(suppress: bool):
    scenario = build_scenario(
        "forest_fire", "medium", seed=17, suppress=suppress,
    )
    scenario.system.run(until=scenario.params["horizon"])
    return scenario


def main() -> None:
    closed = run_once(suppress=True)
    open_loop = run_once(suppress=False)

    print("=== closed loop (detect -> suppress) ===")
    system = closed.system
    print(f"ignition at tick {closed.params['ignition_tick']}, "
          f"suppression at ticks {closed.handles['suppress_log']}")
    layers = {k.name: v for k, v in system.instances_by_layer().items()}
    print(f"instances per layer: {layers}")

    # --- the detected field events vs the true burning region
    fire = closed.handles["fire"]
    truth_region = fire.burning_region()
    print("\ndetected fire_suspected field events:")
    for sink in system.sinks.values():
        for instance in sink.emitted:
            location = instance.estimated_location
            print(f"  l_eo={location!r} t_eo={instance.estimated_time!r} "
                  f"rho={instance.confidence:.2f}")
            if truth_region is not None and hasattr(location, "intersects"):
                print(f"    IoU vs true burning region: "
                      f"{region_iou(location, truth_region):.2f}")

    # --- loop effect on the physical world
    print("\n=== loop effect ===")
    print(f"burned fraction with suppression   : "
          f"{closed.handles['fire'].burned_fraction:.3f}")
    print(f"burned fraction without suppression: "
          f"{open_loop.handles['fire'].burned_fraction:.3f}")
    assert (
        closed.handles["fire"].burned_fraction
        < open_loop.handles["fire"].burned_fraction
    ), "suppression must bound the spread"

    # --- ground truth from the temperature field itself
    hot_area = exceedance_region(
        closed.handles["temperature"],
        closed.handles["extent"],
        threshold=closed.params["hot_threshold"],
        tick=closed.system.sim.tick,
        resolution=25,
    )
    if hot_area is not None:
        print(f"\ntrue >={closed.params['hot_threshold']:.0f}C area at end: "
              f"{hot_area.area():.0f} m^2")


if __name__ == "__main__":
    main()
