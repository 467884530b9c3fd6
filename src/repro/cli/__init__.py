"""The unified ``python -m repro`` command line.

One command, six subcommands — ``ingest``, ``embed``, ``serve``,
``replay``, ``evaluate``, ``bench`` — sharing one argument/config layer:
every subcommand accepts ``--config file.json`` (or ``.yaml``) whose keys
are the subcommand's long options, with explicit flags overriding the file,
plus a ``--seed`` that is plumbed end-to-end through dataset generation,
engine sampling and model initialisation.  Methods are chosen everywhere by
the same ``"name(key=value)"`` specs of :mod:`repro.api.registry`.
"""

from repro.cli.main import main

__all__ = ["main"]
