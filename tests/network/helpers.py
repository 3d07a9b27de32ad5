"""Shared test helper: one fabric transfer as a process of its own."""

from repro.network import Message


def send(fabric, src, dst, size, tag="", payload=None):
    """Start ``fabric.transfer`` of a fresh message as its own process.

    The returned process fires with the delivered message, or fails with
    the transfer's error, so tests can run, wait on or interrupt one
    transfer by itself.
    """
    msg = Message(src=src, dst=dst, size=size, tag=tag, payload=payload)
    return fabric.env.process(fabric.transfer(msg))
