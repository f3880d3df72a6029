"""Smart building: "user A is nearby window B for the last 30 minutes".

The paper's running example (Sections 1 and 4.2).  A user walks to a
window, lingers, and leaves; range sensors on the motes track them.
The same physical episode is read both ways the paper describes:

* as a *punctual* event — the instant the user is detected entering the
  nearby area;
* as an *interval* event — opened on entering, closed on leaving, with
  the "for the last 30 minutes" condition answered while the interval
  is still open.

The sink promotes sufficiently long stays to a cyber-physical
``long_stay`` event; the CCU reacts with an HVAC command.

Run:  python examples/smart_building.py
"""

from repro.core.time_model import Clock
from repro.metrics import interval_iou
from repro.physical import proximity_intervals
from repro.workloads import build_scenario


def main() -> None:
    # One tick = one second; a 300 s stay threshold keeps the demo quick
    # (use 1800 for literal 30 minutes).
    clock = Clock(tick_seconds=1.0)
    scenario = build_scenario(
        "smart_building", "medium",
        seed=7,
        nearby_radius=8.0,
        stay_ticks=clock.ticks(300),
        approach_tick=100,
        leave_tick=600,
        horizon=900,
    )
    system = scenario.system
    system.run(until=scenario.params["horizon"])

    user = scenario.handles["user"]
    window = scenario.handles["window"]

    # --- ground truth straight from the physical world
    truth = proximity_intervals(
        user, window, scenario.params["nearby_radius"], 0,
        scenario.params["horizon"],
    )
    print("=== ground truth ===")
    for interval in truth:
        print(f"user truly nearby window during {interval!r} "
              f"({clock.seconds(interval.duration):.0f} s)")

    # --- what the motes detected (interval sensor events)
    print("\n=== detected interval events (sensor layer) ===")
    detected = []
    for mote in system.motes.values():
        for instance in mote.emitted:
            if instance.event_id != "user_nearby":
                continue
            if instance.attribute("phase") != "closed":
                continue
            detected.append(instance)
            print(f"{instance.observer!r}: nearby during "
                  f"{instance.estimated_time!r} rho={instance.confidence:.2f}")
    if detected and truth:
        best = max(
            interval_iou(i.estimated_time, truth[0]) for i in detected
        )
        print(f"best interval IoU vs ground truth: {best:.2f}")

    # --- the cyber-physical long-stay event and the HVAC reaction
    print("\n=== long stays (cyber-physical layer) ===")
    for sink in system.sinks.values():
        for instance in sink.emitted:
            print(f"{instance.observer!r}: {instance.describe()}")

    print("\n=== actions ===")
    for tick, payload in scenario.handles["hvac_commands"]:
        print(f"tick {tick}: adjust_hvac {payload}")
    if not scenario.handles["hvac_commands"]:
        print("(no HVAC command — stay too short?)")


if __name__ == "__main__":
    main()
