"""Known-bad schema use: restating a registered tag as a literal."""

# BUG: duplicates repro.schemas.API_SCHEMA — the next version bump
# misses this copy.
API_SCHEMA = "profibus-rt/api/v2"
