"""End-to-end benchmark: ``repro serve`` over real sockets and the batch
runner from a separate caller, checked bit for bit against the legacy
oracle.  See ``README.md`` beside this file."""
