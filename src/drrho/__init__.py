"""Reference-shifted robust risk minimization and two-tower contrastive
training, small enough to verify every gradient and solver against an
independent oracle."""
