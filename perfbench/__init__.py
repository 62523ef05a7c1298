"""The repository benchmark: the delivery daemon measured end to end and per layer.

``python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>``
builds the standard deployment, drives a seeded closed-loop schedule
through :class:`repro.service.DeliveryDaemon`, checks every result against
a serial replay, and prints its metrics. See ``perfbench/README.md``.
"""
