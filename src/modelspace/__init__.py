"""modelspace: projective model spaces of constant curvature and their
degenerate limits, with numerics that verify the structures.

Submodules
----------
forms        symmetric bilinear forms, signatures, restrictions
projective   model spaces, lines, the absolute, cross-ratio distances
duality      dual cones, polar bodies, support functions, point/plane duality
transition   conjugacy limits: rescaling families, limit groups, the 1-d toy
connections  pseudo-sphere and co-space connections and volume forms
pogorelov    chart metrics, the operator L, infinitesimal Pogorelov maps
surfaces     embedding data, Gauss-Codazzi checks, dual surfaces, transitions
acceptance   the property-based acceptance suite
cli          command-line front end (also exposed as the `modelspace` script)

The package itself exports nothing, so that loading it loads no
submodule: use the submodules, e.g. ``modelspace.projective``.
"""
