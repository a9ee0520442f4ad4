"""Kind classification of du Val surface singularities with numerical
certification of the A-series structure form."""
