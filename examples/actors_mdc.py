#!/usr/bin/env python
"""Message Driven Computing: a pattern-driven actor pipeline across hosts.

The paper's first language on top of D-Memo is MDC, "a pattern-driven
language based on Actors" [4].  This example builds a three-stage word-count
pipeline whose actors live on *different* simulated machines — mailbox
folders are globally addressable, so actor references travel inside
messages exactly like any other transferable.

    splitter (host alpha) → counter (host beta) → reporter (host alpha)

Run:  python examples/actors_mdc.py
"""

import time

from repro import Cluster, system_default_adf
from repro.languages.mdc import ActorSystem, Behavior

TEXT = """the appearance of a shared directory of unordered queues can be
provided by integrating heterogeneous computers transparently the shared
directory of queues provides a communication interface"""


def main() -> None:
    adf = system_default_adf(["alpha", "beta"], app="wordcount")
    with Cluster(adf) as cluster:
        cluster.register()
        sys_alpha = ActorSystem(
            cluster.memo_api("alpha", "wordcount", "sysA"),
            memo_factory=lambda n: cluster.memo_api("alpha", "wordcount", n),
        )
        sys_beta = ActorSystem(
            cluster.memo_api("beta", "wordcount", "sysB"),
            memo_factory=lambda n: cluster.memo_api("beta", "wordcount", n),
        )

        finished: dict = {}

        # -- stage 3: reporter (alpha) ------------------------------------
        reporter = Behavior()

        @reporter.on({"type": "totals"})
        def report(actor, msg):
            finished.update(msg["counts"])

        reporter_ref = sys_alpha.spawn("reporter", reporter)

        # -- stage 2: counter (beta) ----------------------------------------
        counter = Behavior()

        # A mailbox is a folder, and folders are unordered: the flush may
        # overtake words sent before it.  It carries how many words were
        # sent, so the counter reports once it has seen the flush and
        # counted that many, whichever comes last.
        def report_when_done(actor):
            counts = actor.state.setdefault("counts", {})
            if sum(counts.values()) == actor.state.get("expected"):
                actor.send(actor.state["to"], {"type": "totals", "counts": counts})

        @counter.on({"type": "word"})
        def count(actor, msg):
            counts = actor.state.setdefault("counts", {})
            counts[msg["word"]] = counts.get(msg["word"], 0) + 1
            report_when_done(actor)

        @counter.on({"type": "flush"})
        def flush(actor, msg):
            actor.state.update(expected=msg["words"], to=msg["to"])
            report_when_done(actor)

        counter_ref = sys_beta.spawn("counter", counter)

        # -- stage 1: splitter (alpha) -----------------------------------------
        splitter = Behavior()

        @splitter.on({"type": "text"})
        def split(actor, msg):
            words = msg["body"].split()
            for word in words:
                actor.send(msg["next"], {"type": "word", "word": word})
            actor.send(msg["next"], {"type": "flush", "to": msg["report_to"], "words": len(words)})

        splitter_ref = sys_alpha.spawn("splitter", splitter)

        # Kick it off: one message carrying both downstream actor refs.
        sys_alpha.send(
            splitter_ref,
            {"type": "text", "body": TEXT, "next": counter_ref, "report_to": reporter_ref},
        )

        deadline = time.monotonic() + 15
        while not finished and time.monotonic() < deadline:
            time.sleep(0.02)

        top = sorted(finished.items(), key=lambda kv: (-kv[1], kv[0]))[:6]
        print("top words across the actor pipeline:")
        for word, n in top:
            print(f"  {word:<12} {n}")
        assert finished.get("of") == 3, finished.get("of")

        sys_alpha.shutdown()
        sys_beta.shutdown()
    print("done.")


if __name__ == "__main__":
    main()
