// expect: none
// Builtins priced by their work, over literals, range(K) and keys or values
// of an object literal: pipecost bounds each call's price from the size it
// infers, so for straight-line code the bound is exactly what the
// interpreter charges.
function event_received(message) {
  var n = index_of([1, 2, 3, 4, 5], 9);
  var r = range(12);
  var s = sort([5, 3, 8, 1]);
  var k = keys({a: 1, b: 2, c: 3});
  var v = values({x: 1, y: 2});
  var c = concat([1, 2], range(3));
  var t = upper("hello") + lower("WORLD") + trim("  x  ");
  var p = split("a,b,c", ",");
  var j = join([1, 2, 3], "-");
  var u = slice([1, 2, 3, 4], 1, 3);
  var q = contains("haystack", "st");
  var d = json_decode("[1, 2, 3]");
  var w = reverse([1, 2, 3]);
  var b = starts_with("prefix", "pre");
  var e = ends_with("suffix", "fix");
  var m = num("42");
  unshift([1, 2], 0);
  metric("n", n + len(r) + len(s) + len(k) + len(v) + len(c) + len(p) + len(u) + len(w) + len(d) + m);
  log(t, j, q, b, e);
  frame_done();
}
