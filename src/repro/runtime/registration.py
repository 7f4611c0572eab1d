"""The application registration protocol (paper section 4.4).

"When an application is started up, it will register itself with all the
memo servers it will interact [with]. ... This registration process
includes storing the application's name and its routing table in each of
the memo servers."

Registration is a *unicast* to each memo server in the ADF — never a
broadcast — carrying everything placement and routing need: the link
adjacency with costs, the host power figures, and the folder-server
placement list.
"""

from __future__ import annotations

from repro.adf.model import ADF
from repro.errors import RuntimeLaunchError
from repro.network.connection import Address, Transport
from repro.network.protocol import RegisterRequest, round_trip

__all__ = ["registration_request_for", "register_everywhere"]


def registration_request_for(adf: ADF) -> RegisterRequest:
    """Build the registration message an ADF implies."""
    adf.validate()
    return RegisterRequest(
        app=adf.app,
        links=adf.links_dict(),
        host_costs=adf.host_power(),
        folder_servers=tuple(adf.folder_server_placement()),
        replication_factor=adf.replication_factor,
    )


def register_everywhere(
    adf: ADF,
    transport: Transport,
    address_book: dict[str, Address],
) -> None:
    """Register *adf* with the memo server of every host it names.

    Raises:
        RuntimeLaunchError: any server rejected or could not be reached.
    """
    request = registration_request_for(adf)
    for host in adf.host_names():
        address = address_book.get(host)
        if address is None:
            raise RuntimeLaunchError(f"no memo server address known for {host!r}")
        reply = round_trip(transport, address, request, timeout=10.0)
        if not getattr(reply, "ok", False):
            raise RuntimeLaunchError(
                f"memo server on {host} rejected registration: "
                f"{getattr(reply, 'error', 'unknown error')}"
            )
