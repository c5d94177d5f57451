"""nfsense: near-field Wi-Fi multi-person sensing simulator and toolkit.

Names are imported from their modules, e.g. ``nfsense.geometry.vir_map``.
"""

__version__ = "0.1.0"
