package model

// KeyFull is keyFull, for the external tests that compare the two key forms.
const KeyFull = keyFull
