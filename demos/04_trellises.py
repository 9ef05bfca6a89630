"""Code and error trellises for one pair, plus min-weight decoding.

The code trellis walks the encoder registers; the error trellis walks the
syndrome former.  Both terminate at the zero state, so their paths are
exactly the terminated codewords and the syndrome-consistent error
sequences.
"""

from shifttrellis import (
    build_code_trellis,
    build_error_trellis,
    count_paths,
    enumerate_paths,
    format_blocks,
    min_weight_path,
    parse_blocks,
    parse_matrix,
    syndrome,
    trellis_dot,
)

G = parse_matrix("D+D^2,D^2,1+D")
H = parse_matrix("1,0,D;D,1+D,0")

code = build_code_trellis(G, 4)
print(f"code trellis over 4 blocks: {code.state_count} states, "
      f"{len(enumerate_paths(code))} paths")
for y in enumerate_paths(code):
    print(f"  {format_blocks(y)}")

z = parse_blocks("001 000 011 010").padded(5)
zeta = syndrome(z, H)
print()
print(f"received z = {format_blocks(z)}  (last block is flush padding)")
print(f"syndrome   = {format_blocks(zeta)}")

err = build_error_trellis(H, zeta)
print(f"error trellis: {err.state_count} states, "
      f"feasible: {count_paths(err) > 0}")
for e in enumerate_paths(err):
    print(f"  {format_blocks(e)}  ->  y = {format_blocks(z ^ e)}")

e_hat, weight = min_weight_path(err)
print()
print(f"min-weight error estimate: {format_blocks(e_hat)} (weight {weight})")
print(f"decoded codeword:          {format_blocks(z ^ e_hat)}")

dot = trellis_dot(build_code_trellis(G, 3))
print()
print("graphviz rendering of the 3-block code trellis:")
print(dot)
