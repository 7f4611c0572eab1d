"""Application Description Files (paper section 4.3).

An ADF has five sections — ``APP``, ``HOSTS``, ``FOLDERS``, ``PROCESSES``,
``PPC`` — defining the application name, host machines (with processor
count, architecture type, and cost), folder-server placement, process
placement, and the logical point-to-point topology with link costs.
"Any section missing will default to the appropriate system ADF section."

* :mod:`repro.adf.model` — the parsed representation and its validation;
* :mod:`repro.adf.parser` — the text format, including ``3-8`` numeric
  ranges and ``sun4*0.5`` cost expressions over architecture variables;
* :mod:`repro.adf.topology` — generators for the topology families the
  paper names (star, ring, mesh, cube, tree, systolic, point-to-point);
* :mod:`repro.adf.defaults` — the system default ADF and section merging.
"""

from repro.adf.model import ADF, FolderDecl, HostDecl, LinkDecl, ProcessDecl
from repro.adf.parser import parse_adf, parse_adf_file
from repro.adf.topology import (
    cube_links,
    fully_connected_links,
    mesh_links,
    ring_links,
    star_links,
    systolic_links,
    tree_links,
)
from repro.adf.defaults import merge_with_default, system_default_adf

__all__ = [
    "ADF",
    "HostDecl",
    "FolderDecl",
    "ProcessDecl",
    "LinkDecl",
    "parse_adf",
    "parse_adf_file",
    "star_links",
    "ring_links",
    "mesh_links",
    "cube_links",
    "tree_links",
    "systolic_links",
    "fully_connected_links",
    "merge_with_default",
    "system_default_adf",
]
