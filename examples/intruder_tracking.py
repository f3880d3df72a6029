"""Intruder tracking: condition S1 extended with trilateration.

An intruder patrols across a secured grid.  Each mote's range sensor
emits punctual ``presence`` point events carrying the measured range;
the sink requires three distinct motes to concur within a window and a
diameter bound (the spatio-temporal composite of Section 4.1), then
refines the event location by least-squares trilateration — exactly the
paper's introduction example of a sink computing a user location "from
several range measurements from different sensor motes".

Run:  python examples/intruder_tracking.py
"""

from repro.core.space_model import PointLocation
from repro.sim.trace import summarize
from repro.workloads import build_scenario


def main() -> None:
    scenario = build_scenario("intrusion", "medium", seed=23)
    system = scenario.system
    system.run(until=scenario.params["horizon"])
    intruder = scenario.handles["intruder"]

    print("=== intruder tracks (cyber-physical layer) ===")
    errors = []
    sink = system.sinks["MT0_0"]
    for track in sink.emitted:
        if track.event_id != "intruder_track":
            continue
        when = track.estimated_time
        tick = when.tick if hasattr(when, "tick") else when.start.tick
        estimate = track.estimated_location
        truth = intruder.position(tick)
        if isinstance(estimate, PointLocation):
            error = estimate.distance_to(truth)
            errors.append(error)
            print(f"t={tick:>4}  est={estimate!r:<22} true={truth!r:<22} "
                  f"err={error:5.2f} m  rho={track.confidence:.2f}")

    print("\n=== localization error summary (m) ===")
    for key, value in summarize(errors).items():
        print(f"{key:>6}: {value:7.2f}")

    print("\n=== alarms ===")
    print(f"siren sounded at ticks: {scenario.handles['alarm_log']}")

    print("\n=== per-layer instance counts (Figure 2) ===")
    for layer, count in sorted(system.instances_by_layer().items()):
        print(f"{layer.name:<16}: {count}")


if __name__ == "__main__":
    main()
