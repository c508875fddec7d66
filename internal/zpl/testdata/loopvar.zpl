-- A loop variable by every route an executable statement can read it:
-- as a scalar in an array expression, in a region bound, and inside an
-- inline @[…] shift (where lowering turns it into a constant). The output
-- (loopvar.out) was produced by the interpreter as it stood before
-- statements were prepared once and held across trips.
const n = 6;
region All = [0..n+1, 0..n+1];
region R   = [1..n, 1..n];
direction north = [-1, 0];
direction west  = [0, -1];
var a, b : [All] double;
var s, t : double;

[All] a := 0.37;
[1..n+1, 0..n+1] scan
  a := 3.7 * a'@north * (1.0 - a'@north);
end;
[0..n+1, 1..n+1] scan
  a := 0.25 * a + 0.75 * (3.9 * a'@west * (1.0 - a'@west));
end;
[All] b := 0;
t := 0;
for k := 1 to 3 do
  [R] a := a * 0.5 + k;
  [k..n, 1..n-k+1] b := b + a@[1-k, k-1] / k;
  [2..n, k..n] scan
    b := b'@north * 0.25 + a@[0, 1-k] + k;
  end;
  [k..n, k..n] s := +<< (a@[1-k, 0] * k - b);
  [k..n, k..n] t := max<< (b@[0, 1-k] + t / (k + 1));
  writeln("k", k, "s", s, "t", t);
end;
writeln("a:", a);
writeln("b:", b);
