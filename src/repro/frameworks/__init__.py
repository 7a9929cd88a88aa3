"""Comparator framework profiles (Figure 9 / Table 2)."""
