"""Runtime layer: the virtual machine an application sees.

* :mod:`repro.runtime.client` — a process's connection to its local memo
  server (every application process talks only to the memo server on its
  own host, as in Figure 1).
* :mod:`repro.runtime.cluster` — builds the simulated heterogeneous network
  from an ADF: one memo server per host over a shared fabric (or TCP).
* :mod:`repro.runtime.backends` — where those servers live: threads in
  this interpreter (default) or one OS process per host.
* :mod:`repro.runtime.server_main` — the per-process memo-server
  entrypoint (``python -m repro.runtime.server_main``).
* :mod:`repro.runtime.registration` — the section-4.4 registration protocol.
* :mod:`repro.runtime.program` / :mod:`repro.runtime.process` — the
  boss/worker program registry and process harness (section 4.2).
* :mod:`repro.runtime.launcher` — the ``memo adf`` entry point: register,
  start processes, collect results.

The package imports nothing and re-exports nothing: import the submodule,
so a memo server process (``server_main``) loads none of the client,
cluster or launcher code.
"""
