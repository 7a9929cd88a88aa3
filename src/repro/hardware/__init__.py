"""Hardware substrate: model and GPU descriptors and deployment platforms."""
